// Command benchdiff judges a change against its parent commit by the
// repository benchmark. Each input file holds one perfledger result object
// per line — the last stdout line of a tools/perfledger/run.sh run — in pair
// order: line i of both files is pair i, same workload and seed (make
// perfdiff writes them). The metrics, their directions and their bounds are
// BENCHMARK.json's end_to_end list; benchdiff has no threshold of its own.
//
// One row per metric: the two medians, the parent's own spread (the
// distance between its quartiles), wins and losses over the pairs (ties
// count for neither), how much better the change's median is in the
// metric's own direction, the bound, and one verdict:
//
//	regressed   the change's median is worse than the parent's by more than the bound
//	unresolved  the parent's spread exceeds the bound, so the pairs cannot tell —
//	            unless every change run beats every parent run
//	gain        at least 10 pairs, wins in at least 9/10 of them, and the
//	            medians apart by more than the parent's spread
//	unchanged   anything else
//
// Exit 1: a metric regressed, a run was incorrect, or the change failed a
// larger share of its operations than the parent. Exit 2: the inputs cannot
// be judged (unequal line counts, a metric missing, fewer than 4 pairs).
//
// Usage:
//
//	go run ./tools/benchdiff -parent parent.jsonl -change change.jsonl [-benchmark BENCHMARK.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"iotscope/internal/stats"
)

// The guides' rule (choosing-metrics §8): ten pairs and nine tenths of them
// before a gain is claimed. Below minPairs there are no quartiles to speak of.
const (
	gainPairs = 10
	minPairs  = 4
)

// metric is one end_to_end entry of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// better reports whether a reads better than b.
func (m metric) better(a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// side is one commit's runs: a value per metric per pair, and the checks'
// tallies summed over the runs.
type side struct {
	values                       map[string][]float64
	runs, incorrect, tried, fail int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parent := fs.String("parent", "", "the parent commit's perfledger result lines, one per pair (required)")
	change := fs.String("change", "", "the change's result lines, in the same pair order (required)")
	bench := fs.String("benchmark", "BENCHMARK.json", "the file naming the end-to-end metrics, their directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	failures, err := diff(*parent, *change, *bench, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if len(failures) > 0 {
		fmt.Fprintln(stderr, "benchdiff:", strings.Join(failures, "; "))
		return 1
	}
	return 0
}

// diff prints the table and returns what fails the change; an error means
// the inputs could not be judged at all.
func diff(parentPath, changePath, benchPath string, w io.Writer) ([]string, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", benchPath, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s names no end_to_end metric", benchPath)
	}
	p, err := load(parentPath, spec.EndToEnd)
	if err != nil {
		return nil, err
	}
	c, err := load(changePath, spec.EndToEnd)
	if err != nil {
		return nil, err
	}
	if p.runs != c.runs {
		return nil, fmt.Errorf("%s has %d result lines, %s has %d: not pairs", parentPath, p.runs, changePath, c.runs)
	}
	if p.runs < minPairs {
		return nil, fmt.Errorf("%d pairs; at least %d are needed", p.runs, minPairs)
	}

	var failures []string
	fmt.Fprintf(w, "%d pairs\n%-16s %-6s %12s %12s %12s %5s %6s %10s %6s  %s\n", p.runs,
		"metric", "unit", "parent", "change", "parent IQR", "wins", "losses", "better by", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		ps, cs := p.values[m.Name], c.values[m.Name]
		pm, cm := stats.Quantile(ps, 0.5), stats.Quantile(cs, 0.5)
		iqr := stats.Quantile(ps, 0.75) - stats.Quantile(ps, 0.25)
		gap := (pm - cm) / pm
		if m.Better == "higher" {
			gap = -gap
		}
		wins, losses, sweep := 0, 0, true
		for i := range cs {
			if m.better(cs[i], ps[i]) {
				wins++
			} else if m.better(ps[i], cs[i]) {
				losses++
			}
			for _, pv := range ps {
				sweep = sweep && m.better(cs[i], pv)
			}
		}
		verdict := "unchanged"
		switch {
		case -gap > m.Bound:
			verdict = "regressed"
			failures = append(failures, fmt.Sprintf("%s regressed %.1f%% (bound %.0f%%)", m.Name, -100*gap, 100*m.Bound))
		case iqr/pm > m.Bound && !sweep:
			verdict = "unresolved"
		case p.runs >= gainPairs && 10*wins >= 9*p.runs && gap*pm > iqr:
			verdict = "gain"
		}
		fmt.Fprintf(w, "%-16s %-6s %12.5g %12.5g %12.5g %5d %6d %+9.1f%% %5.0f%%  %s\n",
			m.Name, m.Unit, pm, cm, iqr, wins, losses, 100*gap, 100*m.Bound, verdict)
	}
	if n := p.incorrect + c.incorrect; n > 0 {
		failures = append(failures, fmt.Sprintf("%d run(s) not correct (parent %d, change %d)", n, p.incorrect, c.incorrect))
	}
	if c.fail*p.tried > p.fail*c.tried {
		failures = append(failures, fmt.Sprintf("failed operations: change %d of %d, parent %d of %d", c.fail, c.tried, p.fail, p.tried))
	}
	return failures, nil
}

// load reads one side's result lines. Every line must carry every metric:
// a run that did not report one is not a run of this benchmark.
func load(path string, metrics []metric) (*side, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &side{values: make(map[string][]float64, len(metrics))}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		s.runs++
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &res); err != nil {
			return nil, fmt.Errorf("%s: line %d is not a perfledger result: %w", path, s.runs, err)
		}
		for _, m := range metrics {
			v, ok := res.Metrics[m.Name]
			if !ok {
				return nil, fmt.Errorf("%s: line %d has no %s", path, s.runs, m.Name)
			}
			s.values[m.Name] = append(s.values[m.Name], v.Value)
		}
		if !res.Correct {
			s.incorrect++
		}
		s.tried += res.Attempted
		s.fail += res.Failed
	}
	return s, nil
}
