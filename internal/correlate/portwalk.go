package correlate

import (
	"math/bits"
	"sync"
)

// A port is 16 bits, so a port-keyed table is put in order by laying it out,
// never by comparing: one pass over the map drops each aggregate into its
// port's slot of a dense table and marks the port in a bitmap, and one scan
// of the bitmap's 1 024 words visits the marked slots ascending. Every
// consumer that wants port order (Result.Export, notify's port → device
// transpose, campaign's bulk load) takes it from the two walks below.

// portTable is the walk's scratch: half a megabyte, needed only while one
// table is being walked, so it is pooled rather than allocated per call.
// A table in the pool is all zero.
type portTable[T any] struct {
	marked [1 << 10]uint64
	aggs   [1 << 16]*T
}

var (
	udpTables = sync.Pool{New: func() any { return new(portTable[PortAgg]) }}
	tcpTables = sync.Pool{New: func() any { return new(portTable[TCPPortAgg]) }}
)

// WalkUDPPorts calls visit once per key of ports, ascending by port. It costs
// one iteration of the map and one scan of a 16-bit bitmap: no comparison,
// no second lookup, and no allocation that grows with the table.
func WalkUDPPorts(ports map[uint16]*PortAgg, visit func(port uint16, agg *PortAgg)) {
	walkPorts(&udpTables, ports, visit)
}

// WalkTCPPorts is WalkUDPPorts for the TCP scan port table.
func WalkTCPPorts(ports map[uint16]*TCPPortAgg, visit func(port uint16, agg *TCPPortAgg)) {
	walkPorts(&tcpTables, ports, visit)
}

func walkPorts[T any](pool *sync.Pool, ports map[uint16]*T, visit func(uint16, *T)) {
	t := pool.Get().(*portTable[T])
	for port, agg := range ports {
		t.marked[port>>6] |= 1 << (port & 63)
		t.aggs[port] = agg
	}
	// Each slot is emptied before its visit, so a visit that panics leaves
	// behind only a table the pool never sees again, and a pooled table
	// pins no result.
	for w, word := range t.marked {
		t.marked[w] = 0
		for ; word != 0; word &= word - 1 {
			port := uint16(w<<6 | bits.TrailingZeros64(word))
			agg := t.aggs[port]
			t.aggs[port] = nil
			visit(port, agg)
		}
	}
	pool.Put(t)
}
