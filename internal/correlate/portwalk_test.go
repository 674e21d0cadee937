package correlate

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"iotscope/internal/profiling"
)

// walkedPorts walks a port-keyed table and checks every visit hands out the
// aggregate the map holds for that port.
func walkedPorts[T any](t *testing.T, m map[uint16]*T, walk func(map[uint16]*T, func(uint16, *T))) []uint16 {
	t.Helper()
	var got []uint16
	walk(m, func(port uint16, agg *T) {
		if agg != m[port] {
			t.Fatalf("port %d visited with %p, the map holds %p", port, agg, m[port])
		}
		got = append(got, port)
	})
	return got
}

// The walk is the order every port table is exported, transposed and
// bulk-loaded in, so it is held to slices.Sort of the keys, on both value
// types, back to back on one pooled table (a slot or a mark left behind by
// one walk would surface in the next).
func TestWalkPortsMatchesSortedKeys(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	random := make([]uint16, 40000)
	for i := range random {
		random[i] = uint16(rnd.Intn(1 << 16))
	}
	for _, keys := range [][]uint16{
		nil, {0}, {65535}, {65535, 0}, {443}, random, {64, 63, 128, 127}, nil,
	} {
		udp := make(map[uint16]*PortAgg)
		tcp := make(map[uint16]*TCPPortAgg)
		for _, p := range keys {
			udp[p], tcp[p] = &PortAgg{Packets: uint64(p)}, &TCPPortAgg{Packets: uint64(p)}
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		want = slices.Compact(want)
		if got := walkedPorts(t, udp, WalkUDPPorts); !slices.Equal(got, want) {
			t.Fatalf("%d UDP keys walked as %d ports, first %v", len(udp), len(got), got[:min(len(got), 8)])
		}
		if got := walkedPorts(t, tcp, WalkTCPPorts); !slices.Equal(got, want) {
			t.Fatalf("%d TCP keys walked as %d ports, first %v", len(tcp), len(got), got[:min(len(got), 8)])
		}
	}
}

// A walk may start another (a visitor that exports, say): each gets a table
// of its own.
func TestWalkPortsNested(t *testing.T) {
	m := map[uint16]*PortAgg{7: {}, 3: {}, 9: {}}
	var got []uint16
	WalkUDPPorts(m, func(outer uint16, _ *PortAgg) {
		WalkUDPPorts(m, func(inner uint16, _ *PortAgg) { got = append(got, outer, inner) })
	})
	want := []uint16{3, 3, 3, 7, 3, 9, 7, 3, 7, 7, 7, 9, 9, 3, 9, 7, 9, 9}
	if !slices.Equal(got, want) {
		t.Fatalf("nested walks visited %v", got)
	}
}

// Walks on several goroutines at once (a reload materializing while a
// collector compacts) each take a table of their own from the pool.
func TestWalkPortsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := make(map[uint16]*TCPPortAgg)
			for p := g; p < 1<<16; p += 4 + g {
				m[uint16(p)] = &TCPPortAgg{}
			}
			for round := 0; round < 20; round++ {
				n, prev := 0, -1
				WalkTCPPorts(m, func(port uint16, agg *TCPPortAgg) {
					if int(port) <= prev || agg != m[port] {
						t.Errorf("goroutine %d: port %d after %d, or another walk's aggregate", g, port, prev)
					}
					n, prev = n+1, int(port)
				})
				if n != len(m) {
					t.Errorf("goroutine %d: %d of %d ports visited", g, n, len(m))
				}
			}
		}(g)
	}
	wg.Wait()
}

// randomPortResult is a Result whose port tables and port-hour cells were
// filled in random order: ports and hours drawn at random, several hours per
// port, hours inserted out of order.
func randomPortResult(rnd *rand.Rand, ports, hours int) *Result {
	res := newResult(hours)
	for i := 0; i < ports; i++ {
		p := uint16(rnd.Intn(1 << 16))
		res.UDPPorts[uint16(rnd.Intn(1<<16))] = &PortAgg{Packets: uint64(i + 1)}
		res.TCPScanPorts[p] = &TCPPortAgg{Packets: uint64(i + 1)}
		for _, h := range rnd.Perm(hours)[:1+rnd.Intn(hours)] {
			res.TCPPortHour[PortHour{Port: p, Hour: uint16(h)}] = uint64(h + 1)
		}
	}
	// Cells whose port has no aggregate: the export must not lean on one.
	res.TCPPortHour[PortHour{Port: uint16(rnd.Intn(1 << 16)), Hour: 0}] = 1
	res.TCPPortHour[PortHour{Port: 65535, Hour: uint16(hours - 1)}] = 1
	res.TCPPortHour[PortHour{Port: 0, Hour: 0}] = 1
	return res
}

func TestExportOrderIsCanonical(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for _, ports := range []int{0, 1, 3, 5000} {
		res := randomPortResult(rnd, ports, 9)
		e := res.Export()
		if len(e.UDPPorts) != len(res.UDPPorts) || len(e.TCPScanPorts) != len(res.TCPScanPorts) ||
			len(e.TCPPortHour) != len(res.TCPPortHour) {
			t.Fatalf("%d ports: export has %d/%d/%d rows for %d/%d/%d entries", ports,
				len(e.UDPPorts), len(e.TCPScanPorts), len(e.TCPPortHour),
				len(res.UDPPorts), len(res.TCPScanPorts), len(res.TCPPortHour))
		}
		for i, row := range e.UDPPorts {
			if i > 0 && row.Port <= e.UDPPorts[i-1].Port {
				t.Fatalf("UDP row %d: port %d after %d", i, row.Port, e.UDPPorts[i-1].Port)
			}
			if row.Packets != res.UDPPorts[row.Port].Packets {
				t.Fatalf("UDP port %d exported with another port's aggregate", row.Port)
			}
		}
		for i, row := range e.TCPScanPorts {
			if i > 0 && row.Port <= e.TCPScanPorts[i-1].Port {
				t.Fatalf("TCP row %d: port %d after %d", i, row.Port, e.TCPScanPorts[i-1].Port)
			}
			if row.Packets != res.TCPScanPorts[row.Port].Packets {
				t.Fatalf("TCP port %d exported with another port's aggregate", row.Port)
			}
		}
		for i, c := range e.TCPPortHour {
			if i > 0 {
				prev := e.TCPPortHour[i-1]
				if c.Port < prev.Port || (c.Port == prev.Port && c.Hour <= prev.Hour) {
					t.Fatalf("cell %d: %d/%d after %d/%d", i, c.Port, c.Hour, prev.Port, prev.Hour)
				}
			}
			if c.Packets != res.TCPPortHour[PortHour{Port: c.Port, Hour: c.Hour}] {
				t.Fatalf("cell %d/%d exported with another cell's packets", c.Port, c.Hour)
			}
		}
		if _, err := e.Result(); err != nil {
			t.Fatalf("%d ports: export does not import: %v", ports, err)
		}
	}
}

// Export's scratch is pooled: on a result with three ports it allocates the
// rows it returns, not a 65 536-slot table per call.
func TestExportAllocatesNoPortSizedTable(t *testing.T) {
	if profiling.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	res := randomPortResult(rand.New(rand.NewSource(24)), 3, 4)
	if got := profiling.AllocBytes(20, func() { res.Export() }); got >= 1<<15 {
		t.Fatalf("Export of a three-port result allocates %d bytes a call", got)
	}
}

func TestPortHourText(t *testing.T) {
	for _, ph := range []PortHour{{0, 0}, {65535, 65535}, {7547, 119}} {
		text, err := ph.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back PortHour
		if err := back.UnmarshalText(text); err != nil || back != ph {
			t.Errorf("%v → %q → %v, %v", ph, text, back, err)
		}
	}
	// Each of these named port 80 hour 3 (or wrapped to some other cell)
	// while the lenient parser stood, so two JSON keys could land on one
	// PortHour and the later silently replace the earlier.
	for _, text := range []string{
		"80/3junk", "80/3/9", " 80/3", "80/3 ", "+80/3", "80/+3", "-80/3", "80/", "/3", "/", "", "80",
		"65536/1", "1/65536", "080/3", "80/03", "0x50/3", "8_0/3", "80 /3", "80/ 3", "80/3\n",
	} {
		got := PortHour{Port: 1, Hour: 2}
		if err := got.UnmarshalText([]byte(text)); err == nil {
			t.Errorf("%q accepted as %v", text, got)
		} else if got != (PortHour{Port: 1, Hour: 2}) {
			t.Errorf("%q rejected but left %v behind", text, got)
		}
	}
}
