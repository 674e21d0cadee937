package core_test

import (
	"fmt"
	"log"
	"os"

	"iotscope/internal/core"
	"iotscope/internal/report"
)

// The minimal end-to-end use of the library: synthesize a small telescope
// dataset, run the paper's inference pipeline over it, print the headline
// results, and check them against the planted ground truth, which the
// pipeline itself never reads. Raise the scale toward 1.0 and drop the
// Hours override for paper-magnitude populations over the full 143-hour
// window; `iotinfer -data DIR` prints the whole reproduction.
func Example() {
	dir, err := os.MkdirTemp("", "iotscope-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := core.DefaultConfig(0.002, 1) // scale, seed
	cfg.Hours = 6
	ds, err := core.Generate(cfg, dir)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ds.Analyze(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := report.Headline(os.Stdout, res); err != nil {
		log.Fatal(err)
	}

	recovered, inWindow := 0, 0
	for _, id := range ds.Truth.Compromised {
		if ds.Truth.OnsetHour[id] < cfg.Hours {
			inWindow++
		}
		if _, ok := res.Correlate.Devices[id]; ok {
			recovered++
		}
	}
	fmt.Printf("ground truth: recovered %d of the %d devices active within the window\n", recovered, inWindow)
	// Output:
	// Headline inference (Sec. III-B)
	//   compromised IoT devices: 54 (consumer 31 / CPS 23) across 19 countries
	//   total IoT packets: 11,513; mean daily active devices: 54
	//   DoS victims: 2 (consumer 1 / CPS 1); backscatter 2,608 pkts (22.7% of IoT traffic, 99% from CPS)
	// Statistical battery (Sec. IV)
	//   Mann-Whitney total pkts/hour consumer-vs-CPS:      U=14 Z=-0.56 p=0.58
	//   Mann-Whitney backscatter/hour consumer-vs-CPS:     U=14 Z=-0.68 p=0.49 (paper: U=6061, Z=-5.95)
	//   Pearson consumer UDP ports-vs-IPs:                 r=0.996 p=0.00029 (paper: r=0.95)
	//   Pearson scanners-vs-scan packets:                  r=0.911 p=0.028 (paper: r~0, p>0.05)
	//
	// ground truth: recovered 54 of the 54 devices active within the window
}
