package notify

import (
	"slices"
	"testing"

	"iotscope/internal/correlate"
	"iotscope/internal/profiling"
)

// sweepResult is one horizontal scanner (device 0) on ports sweepBase up to
// sweepBase+ports-1, named by both realm lists of the fourth of them; device
// 1 rides along on every port but is not kept; device 2 probes two UDP ports.
const sweepBase = 1000

func sweepResult(ports int) *correlate.Result {
	res := &correlate.Result{
		Hours: 1,
		UDPPorts: map[uint16]*correlate.PortAgg{
			5060: {Packets: 9, Devices: []int32{1, 2}},
			53:   {Packets: 9, Devices: []int32{2}},
		},
		TCPScanPorts: make(map[uint16]*correlate.TCPPortAgg, ports),
	}
	for p := 0; p < ports; p++ {
		agg := &correlate.TCPPortAgg{Packets: 2, DevicesConsumer: []int32{0, 1}}
		if p == 3 {
			agg.DevicesCPS = []int32{0}
		}
		res.TCPScanPorts[uint16(sweepBase+p)] = agg
	}
	return res
}

// A capped port list is the 12 lowest ports and holds on to nothing else.
// Truncating the device's whole sorted list instead (ports[:12]) kept up to
// 128 KiB of scan alive behind every 24-byte list a snapshot serves.
func TestCappedPortListHoldsOnlyItself(t *testing.T) {
	udp, tcp := invertPortIndexes(sweepResult(5000), []int{0, 2})
	if len(udp) != 2 || len(tcp) != 2 {
		t.Fatalf("%d UDP and %d TCP lists for 2 kept devices", len(udp), len(tcp))
	}
	// Ascending, cut at the cap, the port both realms name listed twice.
	want := []uint16{1000, 1001, 1002, 1003, 1003, 1004, 1005, 1006, 1007, 1008, 1009, 1010}
	if !slices.Equal(tcp[0], want) {
		t.Fatalf("scanner's TCP ports %v, want %v", tcp[0], want)
	}
	for _, list := range [][]uint16{tcp[0], udp[1]} {
		if cap(list) > 2*MaxPortsPerDevice {
			t.Fatalf("a %d-port list keeps %d slots alive", len(list), cap(list))
		}
	}
	if !slices.Equal(udp[1], []uint16{53, 5060}) {
		t.Fatalf("device 2's UDP ports %v", udp[1])
	}
	// No evidence is an absent field, not an empty one.
	if udp[0] != nil || tcp[1] != nil {
		t.Fatalf("empty lists are %v and %v, want nil", udp[0], tcp[1])
	}
	// Growing one list must not write into its neighbour's slots.
	_ = append(udp[1], 9)
	if !slices.Equal(tcp[0], want) {
		t.Fatalf("appending to one list changed another: %v", tcp[0])
	}

	// Device 1 is on every port and under the floor: it is named nowhere.
	if udp, tcp := invertPortIndexes(sweepResult(50), nil); udp != nil || tcp != nil {
		t.Fatalf("lists with nothing kept: %v, %v", udp, tcp)
	}
}

// What the transpose allocates follows the devices it keeps, not the cells it
// reads, and none of it is a port-sized table.
func TestTransposeCostFollowsKeptDevices(t *testing.T) {
	if profiling.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	keep := []int{0, 2}
	small, large := sweepResult(3), sweepResult(30000)
	allocs := func(res *correlate.Result) float64 {
		return testing.AllocsPerRun(10, func() { invertPortIndexes(res, keep) })
	}
	if s, l := allocs(small), allocs(large); l > s {
		t.Fatalf("%v allocations for 60 002 cells, %v for 8", l, s)
	}
	for _, res := range []*correlate.Result{small, large} {
		if got := profiling.AllocBytes(10, func() { invertPortIndexes(res, keep) }); got > 1024 {
			t.Fatalf("transposing %d ports for 2 devices allocates %d bytes a call", len(res.TCPScanPorts), got)
		}
	}
}
