package fingerprint

import (
	"context"
	"math"
	"os"
	"sync"
	"testing"

	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
	"iotscope/internal/rng"
	"iotscope/internal/wgen"
)

func rec(src netx.Addr, port uint16, proto, flags, ttl uint8, pkts uint32) flowtuple.Record {
	return flowtuple.Record{
		SrcIP: uint32(src), DstIP: 1, DstPort: port,
		Protocol: proto, TCPFlags: flags, TTL: ttl, IPLen: 44, Packets: pkts,
	}
}

func TestProfileAccumulation(t *testing.T) {
	p := NewProfile(1)
	p.Observe(rec(1, 23, flowtuple.ProtoTCP, flowtuple.FlagSYN, 64, 2), 0)
	p.Observe(rec(1, 23, flowtuple.ProtoTCP, flowtuple.FlagSYN, 64, 3), 0)
	p.Observe(rec(1, 80, flowtuple.ProtoTCP, flowtuple.FlagSYN, 64, 5), 2)

	if p.Packets != 10 || p.Records != 3 {
		t.Fatalf("packets=%d records=%d", p.Packets, p.Records)
	}
	if p.HoursSeen != 2 {
		t.Fatalf("hours seen %d", p.HoursSeen)
	}
	if p.distinctPorts != 2 {
		t.Fatalf("distinct ports %d", p.distinctPorts)
	}
	v := p.Vector()
	if v[0] != 1.0 { // all scan-tcp
		t.Fatalf("scan fraction %v", v[0])
	}
	if math.Abs(v[6]-0.5) > 1e-9 { // top port share 5/10
		t.Fatalf("top port share %v", v[6])
	}
	if math.Abs(v[8]-64.0/255) > 1e-9 {
		t.Fatalf("mean TTL %v", v[8])
	}
	if v[9] != 0 { // constant TTL
		t.Fatalf("TTL std %v", v[9])
	}
}

func TestProfilePortCap(t *testing.T) {
	p := NewProfile(1)
	for i := 0; i < maxTrackedPorts+50; i++ {
		p.Observe(rec(1, uint16(i+1), flowtuple.ProtoTCP, flowtuple.FlagSYN, 64, 1), 0)
	}
	if len(p.portPkts) != maxTrackedPorts {
		t.Fatalf("tracked ports %d", len(p.portPkts))
	}
	if p.distinctPorts != maxTrackedPorts+50 {
		t.Fatalf("distinct ports %d", p.distinctPorts)
	}
}

func TestProfileEmptyVector(t *testing.T) {
	p := NewProfile(1)
	v := p.Vector()
	for i, x := range v {
		if x != 0 {
			t.Fatalf("dim %d non-zero for empty profile", i)
		}
	}
}

func TestTopPorts(t *testing.T) {
	p := NewProfile(1)
	p.Observe(rec(1, 23, flowtuple.ProtoTCP, flowtuple.FlagSYN, 64, 10), 0)
	p.Observe(rec(1, 80, flowtuple.ProtoTCP, flowtuple.FlagSYN, 64, 5), 0)
	p.Observe(rec(1, 22, flowtuple.ProtoTCP, flowtuple.FlagSYN, 64, 1), 0)
	top := p.TopPorts(2)
	if len(top) != 2 || top[0] != 23 || top[1] != 80 {
		t.Fatalf("top ports %v", top)
	}
}

// Synthetic two-population sanity check: stable scanners vs chaotic noise.
func TestModelSeparatesSyntheticPopulations(t *testing.T) {
	r := rng.New(7)
	var iot []*Profile
	makeIoT := func(addr netx.Addr) *Profile {
		p := NewProfile(addr)
		ttl := uint8(60 + r.Intn(4))
		for h := 0; h < 30; h++ {
			for i := 0; i < 20; i++ {
				p.Observe(rec(addr, 23, flowtuple.ProtoTCP, flowtuple.FlagSYN, ttl, 1), h)
			}
		}
		return p
	}
	for i := 0; i < 40; i++ {
		iot = append(iot, makeIoT(netx.Addr(100+i)))
	}
	model, err := Train(iot, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}

	candidates := make(map[netx.Addr]*Profile)
	for i := 0; i < 20; i++ {
		candidates[netx.Addr(100+i)] = iot[i] // known IoT-like
	}
	for i := 0; i < 20; i++ {
		addr := netx.Addr(5000 + i)
		p := NewProfile(addr)
		// Chaotic: random class mix, random ports, random TTLs.
		for j := 0; j < 200; j++ {
			var flags uint8
			proto := flowtuple.ProtoTCP
			switch r.Intn(3) {
			case 0:
				flags = flowtuple.FlagSYN
			case 1:
				flags = flowtuple.FlagSYN | flowtuple.FlagACK
			default:
				proto = flowtuple.ProtoUDP
			}
			p.Observe(rec(addr, uint16(1+r.Intn(65000)), proto, flags,
				uint8(30+r.Intn(120)), 1), r.Intn(143))
		}
		candidates[addr] = p
	}
	ev := model.Evaluate(candidates, func(a netx.Addr) bool { return a < 1000 })
	if ev.Recall() < 0.9 {
		t.Errorf("recall %v on training-like population", ev.Recall())
	}
	if ev.Precision() < 0.8 {
		t.Errorf("precision %v: chaotic sources accepted: %+v", ev.Precision(), ev)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	ps := []*Profile{NewProfile(1), NewProfile(2)}
	if _, err := Train(ps, TrainConfig{K: 3}); err == nil {
		t.Fatal("too-small training set accepted")
	}
}

func TestClassifySorted(t *testing.T) {
	var train []*Profile
	for i := 0; i < 10; i++ {
		p := NewProfile(netx.Addr(i))
		p.Observe(rec(netx.Addr(i), 23, flowtuple.ProtoTCP, flowtuple.FlagSYN, 64, 10), 0)
		train = append(train, p)
	}
	m, err := Train(train, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cands := map[netx.Addr]*Profile{100: train[0], 101: train[1]}
	findings := m.Classify(cands)
	if len(findings) != 2 {
		t.Fatalf("findings %d", len(findings))
	}
	if findings[0].Score > findings[1].Score {
		t.Fatal("not sorted by score")
	}
}

func TestEvaluationMetrics(t *testing.T) {
	ev := Evaluation{TruePositives: 8, FalsePositives: 2, FalseNegatives: 2, TrueNegatives: 88}
	if math.Abs(ev.Precision()-0.8) > 1e-9 {
		t.Errorf("precision %v", ev.Precision())
	}
	if math.Abs(ev.Recall()-0.8) > 1e-9 {
		t.Errorf("recall %v", ev.Recall())
	}
	if math.Abs(ev.F1()-0.8) > 1e-9 {
		t.Errorf("f1 %v", ev.F1())
	}
	var zero Evaluation
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero evaluation not zero")
	}
}

// End-to-end: train on half the inferred devices, hunt in the other half +
// background; the hidden IoT devices must be recovered well above chance.
var (
	e2eOnce sync.Once
	e2eErr  error
	e2eGen  *wgen.Generator
	e2eProf map[netx.Addr]*Profile
)

func loadE2E(t *testing.T) (*wgen.Generator, map[netx.Addr]*Profile) {
	t.Helper()
	e2eOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fp-e2e-*")
		if err != nil {
			e2eErr = err
			return
		}
		defer os.RemoveAll(dir)
		sc := wgen.Default(0.01, 606)
		sc.Hours = 72
		e2eGen, e2eErr = wgen.New(sc)
		if e2eErr != nil {
			return
		}
		if _, e2eErr = e2eGen.Run(context.Background(), dir); e2eErr != nil {
			return
		}
		ex := NewExtractor(20)
		if e2eErr = ex.ProcessDataset(dir); e2eErr != nil {
			return
		}
		e2eProf = ex.Profiles()
	})
	if e2eErr != nil {
		t.Fatal(e2eErr)
	}
	return e2eGen, e2eProf
}

func TestHuntHiddenIoTDevices(t *testing.T) {
	g, profiles := loadE2E(t)
	inv := g.Inventory()

	// Split the inferred devices: even IDs train, odd IDs are "hidden"
	// (pretend Shodan never indexed them).
	var train []*Profile
	hidden := make(map[netx.Addr]bool)
	for _, id := range g.Truth().Compromised {
		addr := inv.At(id).IP
		p, seen := profiles[addr]
		if !seen {
			continue
		}
		if id%2 == 0 {
			train = append(train, p)
		} else {
			hidden[addr] = true
		}
	}
	if len(train) < 10 {
		t.Fatalf("only %d training profiles", len(train))
	}
	model, err := Train(train, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Candidate pool: everything that is not a training device.
	trainSet := make(map[netx.Addr]bool, len(train))
	for _, p := range train {
		trainSet[p.Addr] = true
	}
	candidates := make(map[netx.Addr]*Profile)
	for addr, p := range profiles {
		if !trainSet[addr] {
			candidates[addr] = p
		}
	}
	nonIoT := 0
	for addr := range candidates {
		if !hidden[addr] {
			nonIoT++
		}
	}
	if nonIoT < 50 {
		t.Fatalf("only %d background candidates", nonIoT)
	}

	ev := model.Evaluate(candidates, func(a netx.Addr) bool { return hidden[a] })
	baseRate := float64(len(hidden)) / float64(len(candidates))
	t.Logf("hunt: %d candidates (%d hidden IoT), precision=%.2f recall=%.2f (base rate %.2f)",
		len(candidates), len(hidden), ev.Precision(), ev.Recall(), baseRate)
	if ev.Recall() < 0.45 {
		t.Errorf("recall %.2f: hidden IoT devices not recovered", ev.Recall())
	}
	if ev.Precision() < 2*baseRate {
		t.Errorf("precision %.2f not above 2x base rate %.2f", ev.Precision(), baseRate)
	}
}

func BenchmarkExtract(b *testing.B) {
	dir, err := os.MkdirTemp("", "fp-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sc := wgen.Default(0.005, 1)
	sc.Hours = 5
	g, err := wgen.New(sc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Run(context.Background(), dir); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExtractor(1)
		if err := ex.ProcessDataset(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScore(b *testing.B) {
	r := rng.New(1)
	var train []*Profile
	for i := 0; i < 500; i++ {
		p := NewProfile(netx.Addr(i))
		for j := 0; j < 50; j++ {
			p.Observe(rec(netx.Addr(i), uint16(23+r.Intn(5)),
				flowtuple.ProtoTCP, flowtuple.FlagSYN, 64, 1), j%24)
		}
		train = append(train, p)
	}
	m, err := Train(train, TrainConfig{})
	if err != nil {
		b.Fatal(err)
	}
	probe := train[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Score(probe)
	}
}
