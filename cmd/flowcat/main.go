// Command flowcat inspects flowtuple files: print records, summarize an
// hour, summarize a whole dataset, or integrity-check hour files — and
// result-store artifacts (*.irs), for which the verdict reports the
// snapshot or checkpoint's shape, including how far a live checkpoint is
// from its next compaction, and a dataset's malware report index (*.idx),
// for which it reports the XML feed the index is bound to and whether the
// feed beside it still is that one.
//
// Usage:
//
//	flowcat -file hour-000.ft.gz [-n 20]     # head of one file
//	flowcat -data DIR [-hour 5]              # per-hour or dataset summary
//	flowcat -verify -data DIR                # per-file integrity verdicts
//	flowcat -verify -file hour-000.ft.gz     # one-file verdict
//	flowcat -verify -file checkpoint.irs     # result-store verdict
//	flowcat -verify -file checkpoint.irs -data DIR   # ... plus its state digest
//	flowcat -verify -file snapshot.irs -data DIR     # ... the same digest, of a saved result
//	flowcat -verify -file malware-reports.idx        # report index verdict
//
// -verify exits nonzero if any file is corrupt or truncated. Given the
// dataset a checkpoint was taken over, the verdict also restores it — base,
// then frames replayed — and prints the content digest of the state it
// holds: two checkpoints of the same hours agree on it however their files
// were appended to and compacted, and so does a result saved by a batch run
// over those hours (iotinfer -save), whose verdict prints the same digest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"iotscope/internal/classify"
	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/flowtuple"
	"iotscope/internal/malwaredb"
	"iotscope/internal/profiling"
	"iotscope/internal/resultstore"
	"iotscope/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flowcat:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flowcat", flag.ContinueOnError)
	var (
		file    = fs.String("file", "", "one flowtuple file to dump")
		n       = fs.Int("n", 20, "records to print with -file (0 = all)")
		data    = fs.String("data", "", "dataset directory to summarize")
		hour    = fs.Int("hour", -1, "restrict -data summary to one hour")
		verify  = fs.Bool("verify", false, "integrity-check instead of printing records")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "flowcat:", err)
		}
	}()
	switch {
	case *verify && *file != "":
		return verifyFiles([]string{*file}, *data)
	case *verify && *data != "":
		return verifyDataset(*data)
	case *file != "":
		return dumpFile(*file, *n)
	case *data != "":
		return summarize(*data, *hour)
	default:
		return fmt.Errorf("need -file or -data")
	}
}

// verifyDataset integrity-checks every hour file in dir.
func verifyDataset(dir string) error {
	hours, err := flowtuple.DatasetHours(dir)
	if err != nil {
		return err
	}
	if len(hours) == 0 {
		return fmt.Errorf("no hourly files in %s", dir)
	}
	paths := make([]string, len(hours))
	for i, h := range hours {
		paths[i] = flowtuple.HourPath(dir, h)
	}
	return verifyFiles(paths, "")
}

// verifyFiles prints a per-file verdict and fails if any file is bad.
// dataset, when set, is the directory a checkpoint store is restored over.
func verifyFiles(paths []string, dataset string) error {
	bad := 0
	for _, path := range paths {
		var ok string
		var err error
		truncated := flowtuple.ErrTruncated
		if strings.HasSuffix(path, ".irs") {
			truncated = resultstore.ErrTruncated
			var info resultstore.Info
			if info, err = resultstore.Verify(path); err == nil {
				ok = describeStore(info)
				if dataset != "" {
					var state string
					if state, err = storeState(path, dataset, info.Kind); err == nil {
						ok += "; " + state
					}
				}
			}
		} else if strings.HasSuffix(path, ".idx") {
			truncated = wal.ErrTruncated
			var info malwaredb.IndexInfo
			if info, err = malwaredb.VerifyIndex(path); err == nil {
				ok = describeIndex(info)
			}
		} else {
			var hdr flowtuple.Header
			if hdr, err = flowtuple.Verify(path); err == nil {
				ok = fmt.Sprintf("hour %d, %d records", hdr.Hour, hdr.Count)
			}
		}
		switch {
		case errors.Is(err, truncated):
			bad++
			fmt.Printf("%s: TRUNCATED: %v\n", path, err)
		case err != nil:
			bad++
			fmt.Printf("%s: CORRUPT: %v\n", path, err)
		default:
			fmt.Printf("%s: ok (%s)\n", path, ok)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d files failed verification", bad, len(paths))
	}
	fmt.Printf("all %d files ok\n", len(paths))
	return nil
}

// describeStore renders a verified result store's summary. A checkpoint
// compacts when its frames would outgrow the base, so base minus frame
// bytes is the room left before the next rewrite.
func describeStore(info resultstore.Info) string {
	s := fmt.Sprintf("%s v%d, %d hours, %d bytes", info.Kind, info.Version, info.Hours, info.Size)
	if info.Kind == resultstore.KindCheckpoint {
		s += fmt.Sprintf("; base %d bytes, %d frames / %d bytes to replay, %d bytes to next compaction",
			info.BaseSize, info.Frames, info.FrameBytes, info.BaseSize-info.FrameBytes)
		if info.TornBytes > 0 {
			s += fmt.Sprintf(", torn tail of %d bytes dropped", info.TornBytes)
		}
	}
	return s
}

// describeIndex renders a verified malware report index's summary. A stale
// index is not damage: the next open parses the feed and rewrites it.
func describeIndex(info malwaredb.IndexInfo) string {
	state := "stale"
	if info.Fresh {
		state = "fresh"
	}
	return fmt.Sprintf("malware index v%d, %d reports, bound to %d XML bytes crc %08x, %s",
		info.Version, info.Reports, info.XMLLen, info.XMLCRC, state)
}

// storeState digests the state a store holds, so a followed checkpoint and
// a batch run's saved result compare by one token. A checkpoint is restored
// over its dataset the way iotwatch resumes from it and its state re-encoded;
// a result is loaded as iotserve loads it, its digest read off the file.
func storeState(path, dataset string, kind resultstore.Kind) (string, error) {
	var res *correlate.Result
	var digest uint32
	if kind == resultstore.KindCheckpoint {
		ds, err := core.Open(dataset)
		if err != nil {
			return "", err
		}
		cp, err := resultstore.ReadCheckpoint(path)
		if err != nil {
			return "", err
		}
		cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
		cfg.Lenient = true
		inc, err := ds.RestoreIncremental(cfg, cp)
		if err != nil {
			return "", err
		}
		res = inc.Result()
		if digest, err = resultstore.DigestResult(res); err != nil {
			return "", err
		}
	} else {
		var info resultstore.Info
		var err error
		if res, info, err = resultstore.LoadResult(path); err != nil {
			return "", err
		}
		digest = info.Digest
	}
	return fmt.Sprintf("state %08x over %d hours ingested, %d quarantined",
		digest, res.Ingest.HoursOK, res.Ingest.HoursQuarantined), nil
}

func dumpFile(path string, n int) error {
	rd, err := flowtuple.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	fmt.Printf("# hour %d\n", rd.Header().Hour)
	for i := 0; n == 0 || i < n; i++ {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s  [%s]\n", rec.String(), classify.Record(rec))
	}
	return nil
}

func summarize(dir string, only int) error {
	hours, err := flowtuple.DatasetHours(dir)
	if err != nil {
		return err
	}
	if len(hours) == 0 {
		return fmt.Errorf("no hourly files in %s", dir)
	}
	fmt.Printf("%-5s %10s %12s %8s %8s %8s %8s %8s\n",
		"hour", "records", "packets", "scanTCP", "scanICMP", "bscatter", "udp", "other")
	var totRecs, totPkts uint64
	for _, h := range hours {
		if only >= 0 && h != only {
			continue
		}
		var recs uint64
		var pkts [classify.NumClasses]uint64
		var total uint64
		err := flowtuple.WalkHourBatch(context.Background(), dir, h, func(batch []flowtuple.Record) error {
			recs += uint64(len(batch))
			for i := range batch {
				rec := &batch[i]
				total += uint64(rec.Packets)
				pkts[classify.Record(*rec).Index()] += uint64(rec.Packets)
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-5d %10d %12d %8d %8d %8d %8d %8d\n",
			h, recs, total,
			pkts[classify.ScanTCP.Index()], pkts[classify.ScanICMP.Index()],
			pkts[classify.Backscatter.Index()], pkts[classify.UDP.Index()],
			pkts[classify.Other.Index()])
		totRecs += recs
		totPkts += total
	}
	fmt.Printf("total %10d %12d\n", totRecs, totPkts)
	return nil
}
