// Command iotinfer runs the paper's inference pipeline over a dataset
// directory and prints the whole paper reproduction: a header line naming
// the dataset's scale, seed and window, then every table and figure of the
// evaluation (Sec. III–V), headline numbers first. -json emits the headline
// results as JSON instead.
//
// The analysis runs through the staged pipeline engine (correlate →
// characterize → stat-tests → threat-intel → malware → materialize);
// -stage-report dumps the per-stage metrics, and an interrupt cancels the
// run mid-stage.
//
// -save FILE additionally persists the analyzed correlation state as a
// versioned result store artifact (internal/resultstore) once the analysis
// succeeds; iotserve -snapshot serves straight from it without re-analyzing.
//
// To reproduce the reference report (docs/report-scale-0.02.txt):
//
//	darksim -out DIR -scale 0.02 -seed 1
//	iotinfer -data DIR
//
// Usage:
//
//	iotinfer -data DIR [-json] [-workers N] [-lenient]
//	         [-shards N]
//	         [-save store.irs] [-stage-report FILE|-]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"iotscope/internal/core"
	"iotscope/internal/pipeline"
	"iotscope/internal/profiling"
	"iotscope/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iotinfer:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("iotinfer", flag.ContinueOnError)
	var (
		data        = fs.String("data", "", "dataset directory (required)")
		asJSON      = fs.Bool("json", false, "emit machine-readable JSON")
		workers     = fs.Int("workers", 0, "concurrent hour files (0 = GOMAXPROCS)")
		lenient     = fs.Bool("lenient", false, "quarantine unreadable hours instead of failing")
		shards      = fs.Int("shards", 0, "partition correlation into N source-prefix shards (power of two, 0/1 = off)")
		save        = fs.String("save", "", "write the analyzed correlation state to this result store file")
		stageReport = fs.String("stage-report", "", "write per-stage pipeline metrics JSON to this file (- = stderr)")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "iotinfer:", err)
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ds, err := core.Open(*data)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
	cfg.Workers = *workers
	cfg.Lenient = *lenient
	cfg.Shards = *shards
	// The analysis pipeline, with the optional save-store stage appended so
	// the artifact write is reported (and cancellable) like any other stage.
	res := &core.Results{}
	stages := ds.AnalysisStages(cfg, res)
	if *save != "" {
		stages = append(stages, core.SaveSnapshotStage(*save, res))
	}
	rep, err := pipeline.New("analyze", stages...).Run(ctx)
	if emitErr := pipeline.EmitReport(rep, *stageReport); emitErr != nil && err == nil {
		err = emitErr
	}
	if err != nil {
		return err
	}
	if *save != "" {
		fmt.Fprintf(os.Stderr, "iotinfer: saved result store %s\n", *save)
	}
	if *asJSON {
		out := map[string]any{
			"summary":          res.Summary,
			"statTests":        res.StatTests,
			"threatFlagged":    len(res.Threat.Flagged),
			"threatExplored":   res.Threat.Explored,
			"malwareHashes":    res.Malware.Hashes,
			"malwareFamilies":  res.Malware.Families,
			"malwareDomains":   len(res.Malware.Domains),
			"background":       res.Correlate.Background,
			"datasetScale":     ds.Scenario.Scale,
			"datasetSeed":      ds.Scenario.Seed,
			"datasetHours":     ds.Scenario.Hours,
			"inventoryDevices": ds.Inventory.Len(),
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(stdout, "iotscope paper reproduction — scale %v, seed %d, %d hours\n\n",
		ds.Scenario.Scale, ds.Scenario.Seed, ds.Scenario.Hours)
	return report.WriteAll(stdout, res, ds)
}
