package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative: b is better).
func worseBy(m metricDef, a, b float64) float64 {
	if m.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// runRepeat is the repeatability check the acceptance driver applies, as a
// tool: n runs of one workload, each a fresh process on the next seed. For
// every end-to-end metric it prints min/median/max and the spread (q3 − q1
// over the median) beside the bound, and fails when the spread exceeds the
// bound or the second half's median is worse than the first's by more than
// the bound. setup_s is exempt from the spread rule only.
func runRepeat(w workload, seed uint64, seconds, n int, workdir string) error {
	if n < 4 {
		return fmt.Errorf("-repeat needs at least 4 runs to compare two halves, got %d", n)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
			"-seconds", strconv.Itoa(seconds), "-workdir", workdir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w\n%s", i, err, out)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run %d: last line is not a result: %w", i, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d: %d of %d operations failed", i, res.Failed, res.Attempted)
		}
		fmt.Printf("run %2d seed %d:", i, seed+uint64(i))
		for _, m := range endToEnd {
			values[m.Name] = append(values[m.Name], res.Metrics[m.Name].Value)
			fmt.Printf(" %s=%.5g", m.Name, res.Metrics[m.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("\n%s: %d runs, seeds %d..%d\n", w.name, n, seed, seed+uint64(n)-1)
	fmt.Printf("%-16s %-6s %12s %12s %12s %8s %8s %8s  %s\n", "metric", "unit", "min", "median", "max", "spread", "halves", "bound", "verdict")
	bad := 0
	for _, m := range endToEnd {
		xs := values[m.Name]
		q1, med, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		spread := (q3 - q1) / med
		drift := worseBy(m, median(xs[:n/2]), median(xs[n/2:]))
		verdict := "ok"
		gated := m.Name != "setup_s" // its spread is exempt, its drift is not
		switch {
		case gated && spread > m.Bound:
			verdict = "SPREAD OVER BOUND"
			bad++
		case drift > m.Bound:
			verdict = "HALVES DISAGREE"
			bad++
		case gated && spread > m.Bound/3:
			verdict = "ok (spread over a third of the bound)"
		}
		fmt.Printf("%-16s %-6s %12.5g %12.5g %12.5g %7.2f%% %+7.2f%% %7.0f%%  %s\n",
			m.Name, m.Unit, lo, med, hi, 100*spread, 100*drift, 100*m.Bound, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) did not repeat within their bounds", bad)
	}
	return nil
}
