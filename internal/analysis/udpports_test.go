package analysis

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"iotscope/internal/correlate"
	"iotscope/internal/profiling"
)

// udpResult is a result holding only a UDP port table: port → packets, each
// port with as many devices as its port number mod 5.
func udpResult(packets map[uint16]uint64) *correlate.Result {
	res := &correlate.Result{UDPPorts: make(map[uint16]*correlate.PortAgg, len(packets))}
	for port, p := range packets {
		res.UDPPorts[port] = &correlate.PortAgg{Packets: p, Devices: make([]int32, port%5)}
	}
	return res
}

// sortedUDPRows is the oracle: the table in map order, then a comparison
// sort by descending packets and ascending port.
func sortedUDPRows(res *correlate.Result, n int) []UDPPortRow {
	var total uint64
	for _, pa := range res.UDPPorts {
		total += pa.Packets
	}
	rows := make([]UDPPortRow, 0, len(res.UDPPorts))
	for port, pa := range res.UDPPorts {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(pa.Packets) / float64(total)
		}
		rows = append(rows, UDPPortRow{Port: port, Packets: pa.Packets, Pct: pct, Devices: len(pa.Devices)})
	}
	slices.SortFunc(rows, func(x, y UDPPortRow) int {
		if x.Packets != y.Packets {
			return cmp.Compare(y.Packets, x.Packets)
		}
		return cmp.Compare(x.Port, y.Port)
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// TopUDPPorts radix-sorts what the port walk yields; it must give the
// comparison sort's order on every shape of table, including the ones a
// radix sort gets wrong first: nothing to sort, every key equal, ties that
// only the port breaks, and keys whose high bytes alone differ.
func TestTopUDPPortsMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	random := func(ports int, value func() uint64) map[uint16]uint64 {
		m := make(map[uint16]uint64, ports)
		for len(m) < ports {
			m[uint16(r.Intn(1<<16))] = value()
		}
		return m
	}
	cases := map[string]map[uint16]uint64{
		"empty":             {},
		"one row":           {53: 7},
		"one row, zero":     {0: 0},
		"all equal":         {1: 9, 65535: 9, 300: 9, 2: 9, 256: 9},
		"all zero":          {7: 0, 8: 0, 9: 0},
		"ties across ports": {80: 5, 81: 5, 53: 5, 123: 9, 1900: 9, 0: 1, 65535: 1},
		"2^32 and up": {
			1: 1 << 32, 2: 1<<32 - 1, 3: 1<<32 + 1, 4: 1 << 40, 5: 1 << 32, 6: 1 << 56, 7: 1<<56 + 1<<8,
		},
		"max uint64": {
			10: math.MaxUint64, 11: math.MaxUint64 - 1, 12: 0, 13: math.MaxUint64, 14: 1 << 63,
		},
		"only the top byte differs": {20: 1 << 56, 21: 2 << 56, 22: 3 << 56, 23: 2 << 56},
		"random small":              random(500, func() uint64 { return uint64(r.Intn(20)) }),
		"random wide":               random(5000, func() uint64 { return r.Uint64() >> uint(r.Intn(64)) }),
		"every port":                random(1<<16, func() uint64 { return uint64(r.Intn(1 << 20)) }),
	}
	for name, packets := range cases {
		t.Run(name, func(t *testing.T) {
			a := New(udpResult(packets), nil, nil)
			for _, n := range []int{0, 1, 3, len(packets), len(packets) + 1} {
				got, want := a.TopUDPPorts(n), sortedUDPRows(a.res, n)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d: %s", n, firstDiff(got, want))
				}
			}
		})
	}
}

func firstDiff(got, want []UDPPortRow) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return "equal"
}

// The walk's scratch is pooled and the radix counts live on the stack: on a
// three-port result a call allocates its rows and one buffer, not a
// 65 536-slot table.
func TestTopUDPPortsAllocatesNoPortSizedTable(t *testing.T) {
	if profiling.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	a := New(udpResult(map[uint16]uint64{53: 1 << 33, 123: 7, 1900: 1 << 20}), nil, nil)
	if got := profiling.AllocBytes(20, func() { a.TopUDPPorts(0) }); got >= 1<<15 {
		t.Fatalf("TopUDPPorts of a three-port result allocates %d bytes a call", got)
	}
}
