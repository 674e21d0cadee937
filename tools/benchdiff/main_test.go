package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The bounds under test are the repository's own: infer_s 0.20 lower,
// serve_rps 0.20 higher.
const benchmarkFile = "../../BENCHMARK.json"

// runLine is one perfledger result line; metrics the case does not set read 1.
type runLine struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	drop              string // a metric left out of the line
}

// endToEnd is BENCHMARK.json's metric list, which every result line carries.
func endToEnd(t *testing.T) []metric {
	t.Helper()
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd
}

func writeRuns(t *testing.T, name string, metrics []metric, runs []runLine) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range runs {
		values := map[string]any{}
		for _, m := range metrics {
			v, ok := r.metrics[m.Name]
			if !ok {
				v = 1
			}
			if m.Name != r.drop {
				values[m.Name] = map[string]any{"value": v, "unit": m.Unit}
			}
		}
		line, err := json.Marshal(map[string]any{
			"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": values,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runs returns clean runs whose one named metric takes the given values.
func runs(metric string, values ...float64) []runLine {
	out := make([]runLine, len(values))
	for i, v := range values {
		out[i] = runLine{correct: true, attempted: 100, metrics: map[string]float64{metric: v}}
	}
	return out
}

// scaled is steady (a parent with a 1.5 % IQR) times f.
func scaled(f float64, n int) []float64 {
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98}
	out := make([]float64, n)
	for i := range out {
		out[i] = f * steady[i]
	}
	return out
}

func TestVerdicts(t *testing.T) {
	metrics := endToEnd(t)
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 0.6, 1.4, 0.7, 1.3, 0.6, 1.4} // IQR ≈ 0.7 of the median
	edit := func(rs []runLine, f func(*runLine)) []runLine { f(&rs[2]); return rs }
	cases := []struct {
		name           string
		parent, change []runLine
		exit           int
		metric         string // the row whose verdict is checked
		verdict        string
		stderr         string
	}{
		{"worse than the bound", runs("infer_s", scaled(1, 10)...), runs("infer_s", scaled(1.3, 10)...),
			1, "infer_s", "regressed", "infer_s regressed 30.0% (bound 20%)"},
		{"higher is better and more is a gain", runs("serve_rps", scaled(1000, 10)...), runs("serve_rps", scaled(1300, 10)...),
			0, "serve_rps", "gain", ""},
		{"higher is better and less regressed", runs("serve_rps", scaled(1000, 10)...), runs("serve_rps", scaled(700, 10)...),
			1, "serve_rps", "regressed", "serve_rps regressed 30.0%"},
		{"worse inside the bound", runs("infer_s", scaled(1, 10)...), runs("infer_s", scaled(1.15, 10)...),
			0, "infer_s", "unchanged", ""},
		{"parent spread wider than the bound", runs("infer_s", noisy...), runs("infer_s", scaled(0.9, 10)...),
			0, "infer_s", "unresolved", ""},
		{"wide spread but every change run beats every parent run", runs("infer_s", noisy...), runs("infer_s", scaled(0.1, 10)...),
			0, "infer_s", "gain", ""},
		{"10 of 10 wins and a gap over the IQR", runs("infer_s", scaled(1, 10)...), runs("infer_s", scaled(0.9, 10)...),
			0, "infer_s", "gain", ""},
		{"the same over 9 pairs", runs("infer_s", scaled(1, 9)...), runs("infer_s", scaled(0.9, 9)...),
			0, "infer_s", "unchanged", ""},
		{"8 of 10 wins", runs("infer_s", scaled(1, 10)...), runs("infer_s", append(scaled(0.9, 8), 1.05, 1.05)...),
			0, "infer_s", "unchanged", ""},
		{"10 of 10 wins and a gap inside the IQR", runs("infer_s", scaled(1, 10)...), runs("infer_s", scaled(0.99, 10)...),
			0, "infer_s", "unchanged", ""},
		{"one incorrect run", runs("infer_s", scaled(1, 10)...),
			edit(runs("infer_s", scaled(1, 10)...), func(r *runLine) { r.correct = false }),
			1, "infer_s", "unchanged", "1 run(s) not correct (parent 0, change 1)"},
		{"higher failed share", edit(runs("infer_s", scaled(1, 10)...), func(r *runLine) { r.failed = 1 }),
			edit(runs("infer_s", scaled(1, 10)...), func(r *runLine) { r.failed = 2 }),
			1, "infer_s", "unchanged", "failed operations: change 2 of 1000, parent 1 of 1000"},
		{"equal failed share", edit(runs("infer_s", scaled(1, 10)...), func(r *runLine) { r.failed = 1 }),
			edit(runs("infer_s", scaled(1, 10)...), func(r *runLine) { r.failed = 1 }),
			0, "infer_s", "unchanged", ""},
		{"3 pairs", runs("infer_s", scaled(1, 3)...), runs("infer_s", scaled(1, 3)...),
			2, "", "", "3 pairs; at least 4"},
		{"unequal counts", runs("infer_s", scaled(1, 10)...), runs("infer_s", scaled(1, 9)...),
			2, "", "", "not pairs"},
		{"a missing metric", runs("infer_s", scaled(1, 10)...),
			edit(runs("infer_s", scaled(1, 10)...), func(r *runLine) { r.drop = "reload_s" }),
			2, "", "", "line 3 has no reload_s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run([]string{"-parent", writeRuns(t, "parent.jsonl", metrics, tc.parent),
				"-change", writeRuns(t, "change.jsonl", metrics, tc.change), "-benchmark", benchmarkFile}, &stdout, &stderr)
			if got != tc.exit {
				t.Errorf("exit %d, want %d\n%s%s", got, tc.exit, stdout.String(), stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) || (tc.stderr == "") != (stderr.Len() == 0) {
				t.Errorf("stderr %q, want it to name %q", stderr.String(), tc.stderr)
			}
			if tc.exit == 2 {
				return
			}
			rows := regexp.MustCompile(`(?m)^(\w+) .* (\w+)$`).FindAllStringSubmatch(stdout.String(), -1)
			if len(rows) != 1+len(metrics) { // the header and one row per end-to-end metric
				t.Fatalf("%d rows, want %d:\n%s", len(rows), 1+len(metrics), stdout.String())
			}
			for _, row := range rows[1:] {
				want := "unchanged"
				if row[1] == tc.metric {
					want = tc.verdict
				}
				if row[2] != want {
					t.Errorf("%s: verdict %q, want %q\n%s", row[1], row[2], want, stdout.String())
				}
			}
		})
	}
}
