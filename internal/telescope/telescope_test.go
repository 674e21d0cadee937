package telescope

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"testing"

	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
	"iotscope/internal/rng"
)

func newTestTelescope() *Telescope {
	return New(netx.MustParsePrefix("44.0.0.0/8"))
}

func TestContains(t *testing.T) {
	tel := newTestTelescope()
	if !tel.Contains(netx.MustParseAddr("44.12.34.56")) {
		t.Error("dark address not contained")
	}
	if tel.Contains(netx.MustParseAddr("45.0.0.0")) {
		t.Error("lit address contained")
	}
	if tel.NumAddrs() != 1<<24 {
		t.Errorf("NumAddrs = %d", tel.NumAddrs())
	}
}

func TestRandomAddrInside(t *testing.T) {
	tel := newTestTelescope()
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		if a := tel.RandomAddr(r); !tel.Contains(a) {
			t.Fatalf("random dark address %v outside prefix", a)
		}
	}
}

func TestCollectorAggregates(t *testing.T) {
	tel := newTestTelescope()
	dir := t.TempDir()
	c := NewCollector(tel, dir)
	if err := c.BeginHour(0); err != nil {
		t.Fatal(err)
	}
	base := flowtuple.Record{
		SrcIP: 0x01020304, DstIP: uint32(netx.MustParseAddr("44.1.1.1")),
		SrcPort: 5555, DstPort: 23,
		Protocol: flowtuple.ProtoTCP, TCPFlags: flowtuple.FlagSYN,
		TTL: 64, IPLen: 40, Packets: 2,
	}
	// Same 5-tuple twice, one different tuple.
	if err := c.Observe(base); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(base); err != nil {
		t.Fatal(err)
	}
	other := base
	other.DstPort = 80
	other.Packets = 1
	if err := c.Observe(other); err != nil {
		t.Fatal(err)
	}
	if err := c.EndHour(); err != nil {
		t.Fatal(err)
	}

	var recs []flowtuple.Record
	if err := flowtuple.WalkHour(dir, 0, func(r flowtuple.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("wrote %d records, want 2", len(recs))
	}
	if recs[0].Packets != 4 || recs[0].DstPort != 23 {
		t.Fatalf("aggregated record %+v", recs[0])
	}
	if recs[1].Packets != 1 || recs[1].DstPort != 80 {
		t.Fatalf("second record %+v", recs[1])
	}

	st := c.Stats()
	if st.PacketsObserved != 5 || st.RecordsWritten != 2 || st.HoursWritten != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCollectorDropsLitTraffic(t *testing.T) {
	tel := newTestTelescope()
	c := NewCollector(tel, t.TempDir())
	if err := c.BeginHour(0); err != nil {
		t.Fatal(err)
	}
	lit := flowtuple.Record{
		SrcIP: 1, DstIP: uint32(netx.MustParseAddr("8.8.8.8")), Packets: 7,
		Protocol: flowtuple.ProtoUDP,
	}
	if err := c.Observe(lit); err != nil {
		t.Fatal(err)
	}
	if err := c.EndHour(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.PacketsDropped != 7 || st.PacketsObserved != 0 || st.RecordsWritten != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCollectorZeroPacketIgnored(t *testing.T) {
	tel := newTestTelescope()
	c := NewCollector(tel, t.TempDir())
	c.BeginHour(0)
	rec := flowtuple.Record{DstIP: uint32(netx.MustParseAddr("44.0.0.1")), Packets: 0}
	if err := c.Observe(rec); err != nil {
		t.Fatal(err)
	}
	if err := c.EndHour(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RecordsWritten != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCollectorProtocol(t *testing.T) {
	tel := newTestTelescope()
	c := NewCollector(tel, t.TempDir())
	if err := c.Observe(flowtuple.Record{}); err == nil {
		t.Error("Observe outside hour accepted")
	}
	if err := c.EndHour(); err == nil {
		t.Error("EndHour without BeginHour accepted")
	}
	if err := c.BeginHour(-1); err == nil {
		t.Error("negative hour accepted")
	}
	if err := c.BeginHour(0); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginHour(1); err == nil {
		t.Error("nested BeginHour accepted")
	}
	if err := c.EndHour(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorMultipleHours(t *testing.T) {
	tel := newTestTelescope()
	dir := t.TempDir()
	c := NewCollector(tel, dir)
	r := rng.New(9)
	for h := 0; h < 3; h++ {
		if err := c.BeginHour(h); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			rec := flowtuple.Record{
				SrcIP:    r.Uint32(),
				DstIP:    uint32(tel.RandomAddr(r)),
				DstPort:  uint16(r.Intn(1024)),
				Protocol: flowtuple.ProtoTCP,
				TCPFlags: flowtuple.FlagSYN,
				Packets:  1,
			}
			if err := c.Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.EndHour(); err != nil {
			t.Fatal(err)
		}
	}
	hours, err := flowtuple.DatasetHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hours) != 3 {
		t.Fatalf("hours %v", hours)
	}
	if st := c.Stats(); st.HoursWritten != 3 || st.PacketsObserved != 300 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCollectorDeterministicOrder(t *testing.T) {
	tel := newTestTelescope()
	read := func(seed uint64) []flowtuple.Record {
		dir := t.TempDir()
		c := NewCollector(tel, dir)
		c.BeginHour(0)
		r := rng.New(seed)
		for i := 0; i < 500; i++ {
			c.Observe(flowtuple.Record{
				SrcIP:    uint32(r.Intn(50)),
				DstIP:    uint32(netx.MustParseAddr("44.0.0.1")) + uint32(r.Intn(50)),
				Protocol: flowtuple.ProtoUDP,
				DstPort:  uint16(r.Intn(4)),
				Packets:  1,
			})
		}
		c.EndHour()
		var recs []flowtuple.Record
		flowtuple.WalkHour(dir, 0, func(rec flowtuple.Record) error {
			recs = append(recs, rec)
			return nil
		})
		return recs
	}
	a, b := read(42), read(42)
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// Conservation: packets in equal packets persisted.
func TestCollectorPacketConservation(t *testing.T) {
	tel := newTestTelescope()
	dir := t.TempDir()
	c := NewCollector(tel, dir)
	r := rng.New(77)
	var sent uint64
	c.BeginHour(0)
	for i := 0; i < 2000; i++ {
		p := uint32(1 + r.Intn(100))
		sent += uint64(p)
		c.Observe(flowtuple.Record{
			SrcIP:    uint32(r.Intn(100)),
			DstIP:    uint32(tel.RandomAddr(r)),
			DstPort:  uint16(r.Intn(10)),
			Protocol: flowtuple.ProtoUDP,
			Packets:  p,
		})
	}
	c.EndHour()
	var got uint64
	flowtuple.WalkHour(dir, 0, func(rec flowtuple.Record) error {
		got += uint64(rec.Packets)
		return nil
	})
	if got != sent {
		t.Fatalf("persisted %d packets, sent %d", got, sent)
	}
	if st := c.Stats(); st.PacketsObserved != sent {
		t.Fatalf("stats observed %d, sent %d", st.PacketsObserved, sent)
	}
}

func TestHourFileReadableViaReader(t *testing.T) {
	tel := newTestTelescope()
	dir := t.TempDir()
	c := NewCollector(tel, dir)
	c.BeginHour(5)
	c.Observe(flowtuple.Record{
		DstIP: uint32(netx.MustParseAddr("44.2.3.4")), Protocol: flowtuple.ProtoICMP,
		SrcPort: uint16(flowtuple.ICMPEchoRequest), Packets: 3,
	})
	c.EndHour()
	rd, err := flowtuple.Open(flowtuple.HourPath(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.Header().Hour != 5 {
		t.Fatalf("hour %d", rd.Header().Hour)
	}
	rec, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.ICMPType() != flowtuple.ICMPEchoRequest || rec.Packets != 3 {
		t.Fatalf("record %+v", rec)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// A collector outlives an hour it could not write: a directory squatting on
// hour 3's ".tmp" fails that EndHour, and hour 4 then renders with only its
// own flows — byte for byte what a fresh collector writes for it.
func TestCollectorSurvivesFailedHour(t *testing.T) {
	tel := newTestTelescope()
	observe := func(c *Collector, hour, flows int) {
		t.Helper()
		if err := c.BeginHour(hour); err != nil {
			t.Fatal(err)
		}
		r := rng.New(uint64(hour))
		for i := 0; i < flows; i++ {
			if err := c.Observe(flowtuple.Record{
				SrcIP:    r.Uint32(),
				DstIP:    uint32(tel.RandomAddr(r)),
				DstPort:  uint16(r.Intn(1024)),
				Protocol: flowtuple.ProtoUDP,
				Packets:  1 + uint32(r.Intn(9)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	if err := os.Mkdir(flowtuple.HourPath(dir, 3)+flowtuple.TmpSuffix, 0o755); err != nil {
		t.Fatal(err)
	}
	c := NewCollector(tel, dir)
	observe(c, 3, 5000)
	if err := c.EndHour(); err == nil {
		t.Fatal("EndHour wrote through a directory squatting on its temp file")
	}
	if _, err := os.Stat(flowtuple.HourPath(dir, 3)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed hour left a file: %v", err)
	}
	observe(c, 4, 300)
	if err := c.EndHour(); err != nil {
		t.Fatalf("hour after a failed one: %v", err)
	}
	if st := c.Stats(); st.HoursWritten != 1 {
		t.Fatalf("stats %+v, want one hour written", st)
	}

	fresh := NewCollector(tel, t.TempDir())
	observe(fresh, 4, 300)
	if err := fresh.EndHour(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(flowtuple.HourPath(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(flowtuple.HourPath(fresh.dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("hour 4 after a failed hour 3: %d bytes, a fresh collector writes %d", len(got), len(want))
	}
}

func TestCollectorStatsAdd(t *testing.T) {
	a := CollectorStats{PacketsObserved: 1, RecordsWritten: 2, PacketsDropped: 3, HoursWritten: 4}
	a.Add(CollectorStats{PacketsObserved: 10, RecordsWritten: 20, PacketsDropped: 30, HoursWritten: 40})
	if want := (CollectorStats{PacketsObserved: 11, RecordsWritten: 22, PacketsDropped: 33, HoursWritten: 44}); a != want {
		t.Fatalf("sum %+v, want %+v", a, want)
	}
}
