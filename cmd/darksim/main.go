// Command darksim synthesizes a complete telescope dataset: the hourly
// flowtuple capture, the IoT inventory, and the threat-intelligence and
// malware databases. The workload comes from a declarative scenario — a
// bundled one by name, or an external JSON file — and every dataset is
// stamped with a run manifest recording its exact provenance.
//
// Usage:
//
//	darksim -out DIR [-scenario NAME|FILE] [-scale 0.02] [-seed 42] [-hours 0]
//	darksim -list-scenarios
//	darksim -print-config NAME|FILE
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"iotscope/internal/core"
	"iotscope/internal/scenario"
	"iotscope/internal/wgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "darksim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("darksim", flag.ContinueOnError)
	var (
		out     = fs.String("out", "", "output dataset directory (required)")
		scn     = fs.String("scenario", scenario.DefaultName, "bundled scenario name[@version], or a path to a .json scenario file")
		scale   = fs.Float64("scale", 0.02, "population/volume scale, in (0, 1] (1.0 = paper magnitudes)")
		seed    = fs.Uint64("seed", 1, "master seed")
		hours   = fs.Int("hours", 0, "override the scenario's hour window (0 keeps it)")
		list    = fs.Bool("list-scenarios", false, "list the bundled scenario library and exit")
		printCf = fs.String("print-config", "", "print the canonical config of a bundled scenario name[@version] or a .json file (a usable scenario file) to stdout and its hash to stderr, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (every input is a flag)", fs.Arg(0))
	}
	if *list {
		return listScenarios(stdout)
	}
	if *printCf != "" {
		return printConfig(stdout, stderr, *printCf)
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("-scale %v out of range (0, 1]", *scale)
	}
	if *hours < 0 {
		return fmt.Errorf("-hours %d must not be negative", *hours)
	}
	cfg := core.DefaultConfig(*scale, *seed)
	cfg.Hours = *hours

	rs, err := scenario.Resolve(*scn, scenario.Options{Scale: *scale, Seed: *seed, Hours: *hours})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "generating dataset: scenario=%s@%d scale=%v seed=%d hours=%d -> %s\n",
		rs.Config.Name, rs.Config.Version, *scale, *seed, rs.Scenario.Hours, *out)
	start := time.Now()
	ds, err := core.GenerateScenario(cfg, rs, *out)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := ds.GenStats
	fmt.Fprintf(stdout, "hours written:        %d\n", st.Collector.HoursWritten)
	fmt.Fprintf(stdout, "packets captured:     %d\n", st.Collector.PacketsObserved)
	fmt.Fprintf(stdout, "flowtuples persisted: %d\n", st.Collector.RecordsWritten)
	fmt.Fprintf(stdout, "inventory devices:    %d\n", ds.Inventory.Len())
	fmt.Fprintf(stdout, "compromised (truth):  %d\n", len(ds.Truth.Compromised))
	fmt.Fprintf(stdout, "threat events:        %d over %d IPs\n", ds.Threat.Len(), ds.Threat.NumIPs())
	fmt.Fprintf(stdout, "malware reports:      %d\n", ds.Malware.Len())
	fmt.Fprintf(stdout, "config hash:          %s\n", ds.Manifest.ConfigHash)
	fmt.Fprintf(stdout, "generated in %v (%.0f flowtuples/s, %d workers)\n",
		elapsed.Round(time.Millisecond), float64(st.Collector.RecordsWritten)/elapsed.Seconds(),
		wgen.RenderWorkers(st.Hours))
	return nil
}

// listScenarios prints one tab-separated line per bundled scenario:
// ref, composed actor kinds, description. The format is stable so scripts
// can cut -f1 it.
func listScenarios(w io.Writer) error {
	for _, m := range scenario.List() {
		fmt.Fprintf(w, "%s\t%s\t%s\n", m.Ref(), strings.Join(m.Kinds, ","), m.Description)
	}
	return nil
}

// printConfig resolves a scenario reference the same way -scenario does and
// writes exactly its canonical JSON to stdout — redirected to a file, that is
// a scenario file -scenario accepts — and the config hash to stderr.
func printConfig(stdout, stderr io.Writer, ref string) error {
	rs, err := scenario.Resolve(ref, scenario.Options{Scale: 1, Seed: 0})
	if err != nil {
		return err
	}
	canon, err := rs.Config.CanonicalJSON()
	if err != nil {
		return err
	}
	if _, err := stdout.Write(canon); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "config hash: %s\n", rs.ConfigHash)
	return nil
}
