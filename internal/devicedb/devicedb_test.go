package devicedb

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"iotscope/internal/geo"
	"iotscope/internal/netx"
)

func TestCategoryRoundTrip(t *testing.T) {
	for _, c := range []Category{Consumer, CPS} {
		got, err := ParseCategory(c.String())
		if err != nil || got != c {
			t.Errorf("round trip %v: %v, %v", c, got, err)
		}
	}
	if _, err := ParseCategory("bogus"); err == nil {
		t.Error("bogus category parsed")
	}
}

func TestDeviceTypeRoundTrip(t *testing.T) {
	for _, d := range append(ConsumerTypes(), TypeCPS) {
		got, err := ParseDeviceType(d.String())
		if err != nil || got != d {
			t.Errorf("round trip %v: %v, %v", d, got, err)
		}
	}
	if _, err := ParseDeviceType("bogus"); err == nil {
		t.Error("bogus type parsed")
	}
}

func TestCPSServiceTable(t *testing.T) {
	if len(CPSServices) != 31 {
		t.Fatalf("CPS services = %d, want the paper's 31", len(CPSServices))
	}
	if CPSServices[0].Name != "Telvent OASyS DNA" {
		t.Errorf("top service %q", CPSServices[0].Name)
	}
	if i := CPSServiceIndex("Modbus TCP"); i < 0 || CPSServices[i].Name != "Modbus TCP" {
		t.Errorf("Modbus TCP index %d", i)
	}
	if CPSServiceIndex("nope") != -1 {
		t.Error("unknown service found")
	}
}

func TestNewInventoryRejectsDuplicateIPs(t *testing.T) {
	_, err := NewInventory([]Device{
		{ID: 0, IP: 1, Category: Consumer, Type: TypeRouter},
		{ID: 1, IP: 1, Category: CPS, Type: TypeCPS},
	})
	if err == nil {
		t.Fatal("duplicate IPs accepted")
	}
}

func TestInventoryLookup(t *testing.T) {
	inv, err := NewInventory([]Device{
		{ID: 0, IP: netx.MustParseAddr("1.2.3.4"), Category: Consumer, Type: TypeRouter, Country: "US"},
		{ID: 1, IP: netx.MustParseAddr("5.6.7.8"), Category: CPS, Type: TypeCPS, Country: "RU"},
	})
	if err != nil {
		t.Fatal(err)
	}
	i, ok := inv.LookupIP(netx.MustParseAddr("5.6.7.8"))
	if !ok || inv.At(i).Country != "RU" {
		t.Fatalf("lookup failed: %d %v", i, ok)
	}
	if _, ok := inv.LookupIP(netx.MustParseAddr("9.9.9.9")); ok {
		t.Fatal("phantom lookup")
	}
}

func testRegistry(t testing.TB) *geo.Registry {
	t.Helper()
	cfg := geo.DefaultConfig()
	reg, err := geo.Build(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestGenerateShape(t *testing.T) {
	reg := testRegistry(t)
	cfg := DefaultGenConfig(20000)
	inv, err := Generate(cfg, reg, 99)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Len() != 20000 {
		t.Fatalf("generated %d devices", inv.Len())
	}

	byCountry := make(map[string]int)
	byCat := make(map[Category]int)
	byType := make(map[DeviceType]int)
	for _, d := range inv.All() {
		byCountry[d.Country]++
		byCat[d.Category]++
		if d.Category == Consumer {
			byType[d.Type]++
			if d.Services != nil {
				t.Fatal("consumer device has CPS services")
			}
		} else {
			if len(d.Services) < 1 || len(d.Services) > 3 {
				t.Fatalf("CPS device has %d services", len(d.Services))
			}
		}
	}

	// Deployment shares (US should lead at ~25 %).
	usShare := float64(byCountry["US"]) / float64(inv.Len())
	if usShare < 0.23 || usShare > 0.27 {
		t.Errorf("US share %v want ~0.25", usShare)
	}
	for _, code := range []string{"GB", "RU", "CN"} {
		if byCountry["US"] <= byCountry[code] {
			t.Errorf("US (%d) should exceed %s (%d)", byCountry["US"], code, byCountry[code])
		}
	}

	// Global category split ~55/45.
	consumerShare := float64(byCat[Consumer]) / float64(inv.Len())
	if consumerShare < 0.50 || consumerShare > 0.60 {
		t.Errorf("consumer share %v", consumerShare)
	}

	// Consumer type mix: routers > printers > cameras > storage.
	if !(byType[TypeRouter] > byType[TypePrinter] &&
		byType[TypePrinter] > byType[TypeIPCamera] &&
		byType[TypeIPCamera] > byType[TypeStorage]) {
		t.Errorf("type mix %v", byType)
	}
}

func TestGenerateCPSBias(t *testing.T) {
	reg := testRegistry(t)
	inv, err := Generate(DefaultGenConfig(30000), reg, 3)
	if err != nil {
		t.Fatal(err)
	}
	count := func(code string, cat Category) int {
		n := 0
		for _, d := range inv.All() {
			if d.Country == code && d.Category == cat {
				n++
			}
		}
		return n
	}
	// CN is CPS-biased; US is not.
	if count("CN", CPS) <= count("CN", Consumer) {
		t.Errorf("CN CPS %d <= consumer %d", count("CN", CPS), count("CN", Consumer))
	}
	if count("US", Consumer) <= count("US", CPS) {
		t.Errorf("US consumer %d <= CPS %d", count("US", Consumer), count("US", CPS))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	reg := testRegistry(t)
	a, err := Generate(DefaultGenConfig(3000), reg, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultGenConfig(3000), reg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := 0; i < a.Len(); i++ {
		da, db := a.At(i), b.At(i)
		if da.IP != db.IP || da.Country != db.Country || da.Type != db.Type {
			t.Fatalf("device %d differs: %+v vs %+v", i, da, db)
		}
	}
}

func TestGenerateCountryISPConsistentWithRegistry(t *testing.T) {
	reg := testRegistry(t)
	inv, err := Generate(DefaultGenConfig(2000), reg, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range inv.All() {
		if d.ISP < 0 || d.ISP >= len(reg.ISPs) || reg.ISPs[d.ISP].Country != d.Country {
			t.Fatalf("device %d metadata (%s/%d) disagrees with the registry", d.ID, d.Country, d.ISP)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	reg := testRegistry(t)
	bad := DefaultGenConfig(0)
	if _, err := Generate(bad, reg, 1); err == nil {
		t.Error("zero devices accepted")
	}
	bad = DefaultGenConfig(10)
	bad.ConsumerFraction = 1.5
	if _, err := Generate(bad, reg, 1); err == nil {
		t.Error("bad consumer fraction accepted")
	}
	bad = DefaultGenConfig(10)
	bad.ServicesPerCPSMin = 0
	if _, err := Generate(bad, reg, 1); err == nil {
		t.Error("bad service range accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	reg := testRegistry(t)
	inv, err := Generate(DefaultGenConfig(500), reg, 11)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := inv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != inv.Len() {
		t.Fatalf("loaded %d devices, want %d", back.Len(), inv.Len())
	}
	for i := 0; i < inv.Len(); i++ {
		a, b := inv.At(i), back.At(i)
		if a.ID != b.ID || a.IP != b.IP || a.Category != b.Category ||
			a.Type != b.Type || a.Country != b.Country || a.ISP != b.ISP ||
			len(a.Services) != len(b.Services) {
			t.Fatalf("device %d: %+v != %+v", i, a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		`{"id":0,"ip":"999.1.1.1","category":"consumer","type":"router"}`,
		`{"id":0,"ip":"1.1.1.1","category":"weird","type":"router"}`,
		`{"id":0,"ip":"1.1.1.1","category":"consumer","type":"weird"}`,
		`not json`,
	} {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	reg := testRegistry(t)
	inv, err := Generate(DefaultGenConfig(100), reg, 13)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/inv.jsonl"
	var buf bytes.Buffer
	if err := inv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 100 {
		t.Fatalf("loaded %d", back.Len())
	}
}

func TestApportion(t *testing.T) {
	got := Apportion(10, []float64{1, 1, 2})
	if got[0]+got[1]+got[2] != 10 {
		t.Fatalf("sum %v", got)
	}
	if got[2] != 5 {
		t.Fatalf("heaviest part %v", got)
	}
	got = Apportion(7, []float64{1, 1, 1})
	sum := got[0] + got[1] + got[2]
	if sum != 7 {
		t.Fatalf("sum %d", sum)
	}
	// Zero and negative weights get nothing.
	got = Apportion(5, []float64{0, -3, 1})
	if got[0] != 0 || got[1] != 0 || got[2] != 5 {
		t.Fatalf("zero-weight apportion %v", got)
	}
	// Degenerate inputs.
	if out := Apportion(0, []float64{1}); out[0] != 0 {
		t.Error("total 0")
	}
	if out := Apportion(5, nil); len(out) != 0 {
		t.Error("empty weights")
	}
	if out := Apportion(5, []float64{0, 0}); out[0] != 0 || out[1] != 0 {
		t.Error("all-zero weights")
	}
}

func TestApportionExactShares(t *testing.T) {
	// Largest remainder must keep each part within 1 of the exact share.
	weights := []float64{25, 6, 5.9, 5, 58.1}
	total := 12345
	parts := Apportion(total, weights)
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	got := 0
	for i, p := range parts {
		exact := float64(total) * weights[i] / sum
		if float64(p) < exact-1 || float64(p) > exact+1 {
			t.Errorf("part %d = %d, exact %v", i, p, exact)
		}
		got += p
	}
	if got != total {
		t.Fatalf("sum %d != %d", got, total)
	}
}

func BenchmarkGenerate(b *testing.B) {
	reg := testRegistry(b)
	cfg := DefaultGenConfig(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg, reg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupIP(b *testing.B) {
	reg := testRegistry(b)
	inv, err := Generate(DefaultGenConfig(50000), reg, 1)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]netx.Addr, 1024)
	for i := range addrs {
		addrs[i] = inv.At(i * 37 % inv.Len()).IP
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv.LookupIP(addrs[i&1023])
	}
}
