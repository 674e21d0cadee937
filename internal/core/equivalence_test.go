package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"iotscope/internal/analysis"
	"iotscope/internal/correlate"
	"iotscope/internal/netx"
	"iotscope/internal/threatintel"
)

// analyzeUnstaged is the pre-refactor Analyze body, preserved verbatim
// (modulo the context parameters the substrates now require) as the golden
// oracle: the staged engine must produce byte-identical Results.
func analyzeUnstaged(ds *Dataset, cfg Config) (*Results, error) {
	corr := correlate.New(ds.Inventory, cfg.CorrelatorOptions())
	res, err := corr.ProcessDataset(context.Background(), ds.Dir)
	if err != nil {
		return nil, fmt.Errorf("core: correlate: %w", err)
	}
	an := analysis.New(res, ds.Inventory, ds.Registry)

	out := &Results{
		Analyzer:  an,
		Correlate: res,
		Summary:   an.Summary(),
	}
	out.StatTests, err = an.RunStatTests(context.Background())
	if err != nil {
		return nil, fmt.Errorf("core: stat tests: %w", err)
	}

	topCut := cfg.ExploreTopPerCategory
	if topCut <= 0 {
		topCut = 4000
	}
	scaled := int(float64(topCut)*ds.Scenario.Scale + 0.5)
	if scaled < 10 {
		scaled = 10
	}
	out.Threat, err = threatintel.Investigate(context.Background(),
		threatintel.InvestigateConfig{TopPerCategory: scaled},
		res, ds.Inventory, ds.Threat)
	if err != nil {
		return nil, fmt.Errorf("core: threat intel: %w", err)
	}

	ips := make(map[int]netx.Addr, len(res.Devices))
	for id := range res.Devices {
		ips[id] = ds.Inventory.At(id).IP
	}
	out.Malware, err = ds.Malware.Correlate(context.Background(), ips, ds.Catalog)
	if err != nil {
		return nil, fmt.Errorf("core: malware correlate: %w", err)
	}
	return out, nil
}

// TestStagedAnalyzeEquivalence proves the staged pipeline refactor changed
// no numbers: across fault policies and worker counts, the engine's
// Results marshal to the same bytes as the pre-refactor monolith's.
func TestStagedAnalyzeEquivalence(t *testing.T) {
	dir := t.TempDir()
	gen := DefaultConfig(0.005, 42)
	ds, err := Generate(gen, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, lenient := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("lenient=%v/workers=%d", lenient, workers)
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig(0.005, 42)
				cfg.Lenient = lenient
				cfg.Workers = workers

				want, err := analyzeUnstaged(ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, rep, err := ds.AnalyzeStaged(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}

				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantJSON, gotJSON) {
					t.Fatalf("staged Results differ from pre-refactor oracle\nstaged:  %d bytes\noracle:  %d bytes\nfirst divergence at byte %d",
						len(gotJSON), len(wantJSON), firstDiff(wantJSON, gotJSON))
				}

				// The report must name the five analysis stages, all ok.
				for _, stage := range []string{StageCorrelate, StageCharacterize,
					StageStatTests, StageThreatIntel, StageMalware} {
					m := stageOf(rep, stage)
					if m == nil || m.Status != "ok" {
						t.Fatalf("stage %q = %+v, want ok", stage, m)
					}
				}
			})
		}
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
