package threatintel

import (
	"bytes"
	"context"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"iotscope/internal/correlate"
	"iotscope/internal/netx"
	"iotscope/internal/wgen"
)

func TestCategoryRoundTrip(t *testing.T) {
	for _, c := range Categories() {
		got, err := ParseCategory(c.String())
		if err != nil || got != c {
			t.Errorf("round trip %v: %v %v", c, got, err)
		}
		if c.Description() == "" {
			t.Errorf("%v has no description", c)
		}
	}
	if _, err := ParseCategory("nope"); err == nil {
		t.Error("bogus category parsed")
	}
}

func TestRepositoryIndex(t *testing.T) {
	repo := NewRepository()
	ip := netx.MustParseAddr("1.2.3.4")
	repo.Add(Event{IP: ip, Category: Scanning, Source: "feed", Day: 1})
	repo.Add(Event{IP: ip, Category: Scanning, Source: "feed2", Day: 2})
	repo.Add(Event{IP: ip, Category: Malware, Source: "feed", Day: 3})
	repo.Add(Event{IP: netx.MustParseAddr("5.6.7.8"), Category: Spam, Source: "feed", Day: 1})

	if repo.Len() != 4 || repo.NumIPs() != 2 {
		t.Fatalf("Len=%d NumIPs=%d", repo.Len(), repo.NumIPs())
	}
	evs := repo.Query(ip)
	if len(evs) != 3 {
		t.Fatalf("query returned %d events", len(evs))
	}
	cats := repo.CategoriesOf(ip)
	if len(cats) != 2 || cats[0] != Scanning || cats[1] != Malware {
		t.Fatalf("categories %v", cats)
	}
	if got := repo.Query(netx.MustParseAddr("9.9.9.9")); got != nil {
		t.Fatalf("phantom query %v", got)
	}
	if got := repo.CategoriesOf(netx.MustParseAddr("9.9.9.9")); got != nil {
		t.Fatalf("phantom categories %v", got)
	}
}

func TestRepositorySaveLoad(t *testing.T) {
	repo := NewRepository()
	repo.Add(Event{IP: netx.MustParseAddr("9.8.7.6"), Category: BruteForce, Source: "s", Day: 4, Detail: "ssh"})
	repo.Add(Event{IP: netx.MustParseAddr("1.1.1.1"), Category: Phishing, Source: "t", Day: 0})
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.NumIPs() != 2 {
		t.Fatalf("loaded Len=%d NumIPs=%d", back.Len(), back.NumIPs())
	}
	evs := back.Query(netx.MustParseAddr("9.8.7.6"))
	if len(evs) != 1 || evs[0].Category != BruteForce || evs[0].Detail != "ssh" {
		t.Fatalf("loaded events %+v", evs)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		`{"ip":"bad","category":"scanning","source":"s","day":0}`,
		`{"ip":"1.1.1.1","category":"weird","source":"s","day":0}`,
		`garbage`,
	} {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// Shared world fixture.
var (
	worldOnce sync.Once
	worldErr  error
	worldGen  *wgen.Generator
	worldRes  *correlate.Result
)

func loadWorld(t *testing.T) (*wgen.Generator, *correlate.Result) {
	t.Helper()
	worldOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ti-world-*")
		if err != nil {
			worldErr = err
			return
		}
		defer os.RemoveAll(dir)
		sc := wgen.Default(0.01, 555)
		sc.Hours = 48
		worldGen, err = wgen.New(sc)
		if err != nil {
			worldErr = err
			return
		}
		if _, err := worldGen.Run(context.Background(), dir); err != nil {
			worldErr = err
			return
		}
		worldRes, worldErr = correlate.New(worldGen.Inventory(), correlate.Options{}).ProcessDataset(context.Background(), dir)
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return worldGen, worldRes
}

func noisePool(g *wgen.Generator, n int) []netx.Addr {
	pool := make([]netx.Addr, 0, n)
	for i := 0; len(pool) < n; i++ {
		a := netx.MustParseAddr("99.0.0.1") + netx.Addr(i*101)
		if _, isIoT := g.Inventory().LookupIP(a); !isIoT {
			pool = append(pool, a)
		}
	}
	return pool
}

func TestGenerateShape(t *testing.T) {
	g, _ := loadWorld(t)
	repo, err := Generate(DefaultGenConfig(), g.Truth(), g.Inventory(), noisePool(g, 100), 7)
	if err != nil {
		t.Fatal(err)
	}
	if repo.Len() == 0 {
		t.Fatal("empty repository")
	}

	flaggedDevices := 0
	scanningFlags := 0
	for _, id := range g.Truth().Compromised {
		cats := repo.CategoriesOf(g.Inventory().At(id).IP)
		if len(cats) == 0 {
			continue
		}
		flaggedDevices++
		for _, c := range cats {
			if c == Scanning {
				scanningFlags++
			}
		}
	}
	frac := float64(flaggedDevices) / float64(len(g.Truth().Compromised))
	if frac < 0.04 || frac > 0.16 {
		t.Errorf("flagged fraction %v want ~0.09", frac)
	}
	// Scanning dominates flags (Table VI: 96.3 %).
	if float64(scanningFlags)/float64(flaggedDevices) < 0.85 {
		t.Errorf("scanning flag share %v", float64(scanningFlags)/float64(flaggedDevices))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g, _ := loadWorld(t)
	np := noisePool(g, 50)
	a, err := Generate(DefaultGenConfig(), g.Truth(), g.Inventory(), np, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultGenConfig(), g.Truth(), g.Inventory(), np, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.NumIPs() != b.NumIPs() {
		t.Fatalf("not deterministic: %d/%d vs %d/%d", a.Len(), a.NumIPs(), b.Len(), b.NumIPs())
	}
}

func TestGenerateValidation(t *testing.T) {
	g, _ := loadWorld(t)
	np := noisePool(g, 10)
	bad := DefaultGenConfig()
	bad.FlagFraction = 0
	if _, err := Generate(bad, g.Truth(), g.Inventory(), np, 1); err == nil {
		t.Error("flag fraction 0 accepted")
	}
	bad = DefaultGenConfig()
	bad.EventsPerFlagMin = 0
	if _, err := Generate(bad, g.Truth(), g.Inventory(), np, 1); err == nil {
		t.Error("events-per-flag 0 accepted")
	}
	bad = DefaultGenConfig()
	bad.Days = 0
	if _, err := Generate(bad, g.Truth(), g.Inventory(), np, 1); err == nil {
		t.Error("0 days accepted")
	}
}

func TestInvestigate(t *testing.T) {
	g, res := loadWorld(t)
	repo, err := Generate(DefaultGenConfig(), g.Truth(), g.Inventory(), noisePool(g, 100), 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := InvestigateConfig{TopPerCategory: 60}
	inv, err := Investigate(context.Background(), cfg, res, g.Inventory(), repo)
	if err != nil {
		t.Fatal(err)
	}

	if inv.Explored == 0 {
		t.Fatal("nothing explored")
	}
	if inv.Explored > 2*cfg.TopPerCategory+len(g.Truth().Victims) {
		t.Fatalf("explored %d beyond cut", inv.Explored)
	}
	if len(inv.Flagged) == 0 {
		t.Fatal("nothing flagged")
	}
	if len(inv.FlaggedTotals) != len(inv.Flagged) {
		t.Fatal("flagged totals mismatch")
	}
	// Table VI: scanning dominates (paper: 96.3 %); with a handful of
	// flagged devices at test scale, allow rank 2 but require a high share.
	scanningRank := -1
	for i, row := range inv.ByCategory {
		if row.Category == Scanning {
			scanningRank = i
			if row.Pct < 70 {
				t.Errorf("scanning pct %v want ~96", row.Pct)
			}
		}
	}
	if scanningRank < 0 || scanningRank > 1 {
		t.Errorf("scanning rank %d want top 2", scanningRank)
	}
	// Fig. 11: flagged devices skew louder than the explored population.
	median := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return xs[len(xs)/2]
	}
	if median(inv.FlaggedTotals) < median(inv.ExploredTotals) {
		t.Errorf("flagged median %v below explored median %v",
			median(inv.FlaggedTotals), median(inv.ExploredTotals))
	}
	// Findings carry categories.
	for _, f := range inv.Flagged[:minInt(5, len(inv.Flagged))] {
		if len(f.Categories) == 0 {
			t.Fatalf("finding %d with no categories", f.Device)
		}
	}
	// The malware-flagged realm split (paper: 91 CPS vs 26 consumer)
	// partitions exactly the flagged devices in the malware category.
	malwareFlagged := 0
	for _, f := range inv.Flagged {
		if slices.Contains(f.Categories, Malware) {
			malwareFlagged++
		}
	}
	if malwareFlagged == 0 || inv.MalwareCPS+inv.MalwareConsumer != malwareFlagged {
		t.Errorf("malware-flagged split %d CPS + %d consumer, want %d > 0 in all",
			inv.MalwareCPS, inv.MalwareConsumer, malwareFlagged)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
