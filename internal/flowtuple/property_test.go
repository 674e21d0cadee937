package flowtuple

import (
	"io"
	"testing"
	"testing/quick"

	"iotscope/internal/rng"
)

// Property: any sequence of records survives a file round trip in order.
func TestFileRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	seq := 0
	f := func(seed uint64, n uint8) bool {
		seq++
		r := rng.New(seed)
		recs := make([]Record, int(n)%64)
		for i := range recs {
			recs[i] = Record{
				SrcIP:    uint32(r.Uint64() >> 32),
				DstIP:    uint32(r.Uint64() >> 32),
				SrcPort:  uint16(uint32(r.Uint64() >> 32)),
				DstPort:  uint16(uint32(r.Uint64() >> 32)),
				Protocol: uint8(r.Intn(256)),
				TTL:      uint8(r.Intn(256)),
				TCPFlags: uint8(r.Intn(256)),
				IPLen:    uint16(uint32(r.Uint64() >> 32)),
				Packets:  uint32(r.Uint64() >> 32),
			}
		}
		path := HourPath(dir, seq)
		w, err := Create(path, uint32(seq))
		if err != nil {
			return false
		}
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		rd, err := Open(path)
		if err != nil {
			return false
		}
		defer rd.Close()
		for i := 0; ; i++ {
			rec, err := rd.Next()
			if err == io.EOF {
				return i == len(recs)
			}
			if err != nil || i >= len(recs) || rec != recs[i] {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
