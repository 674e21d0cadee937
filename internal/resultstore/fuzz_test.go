package resultstore

import (
	"bytes"
	"errors"
	"io/fs"
	"reflect"
	"testing"

	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/wgen"
)

// seedExport builds a small synthetic export covering every section shape:
// devices with and without backscatter, UDP and TCP ports with asymmetric
// device lists, port-hour cells, and one fault of each classification.
func seedExport() *correlate.ResultExport {
	re := &correlate.ResultExport{
		Hours:             2,
		Hourly:            make([]correlate.HourStats, 2),
		Background:        correlate.BackgroundStats{Records: 7, Packets: 21, Sources: 3},
		IngestOK:          2,
		IngestRetried:     1,
		IngestQuarantined: 1,
	}
	for i := range re.Hourly {
		re.Hourly[i].Hour = i
		re.Hourly[i].RecordsIoT = uint64(10 * (i + 1))
		for ci := range re.Hourly[i].PerCat {
			for k := 0; k < classify.NumClasses; k++ {
				re.Hourly[i].PerCat[ci].Packets[k] = uint64(i*100 + ci*10 + k)
			}
			re.Hourly[i].PerCat[ci].ActiveDevices = i + ci
		}
	}
	re.Devices = []correlate.DeviceExport{
		{ID: 3, FirstSeen: 0, Records: 12, DayMask: 1},
		{ID: 9, FirstSeen: 1, Records: 4, DayMask: 1,
			Backscatter: []correlate.HourCount{{Hour: 0, Count: 2}, {Hour: 1, Count: 5}}},
	}
	re.UDPPorts = []correlate.PortExport{
		{Port: 53, Packets: 40, Devices: []int32{3, 9}},
	}
	re.TCPScanPorts = []correlate.TCPPortExport{
		{Port: 23, Packets: 80, PacketsConsumer: 60, DevicesConsumer: []int32{3}, DevicesCPS: []int32{9}},
		{Port: 2323, Packets: 5, DevicesCPS: []int32{3}},
	}
	re.TCPPortHour = []correlate.PortHourExport{
		{Port: 23, Hour: 0, Packets: 50},
		{Port: 23, Hour: 1, Packets: 30},
	}
	re.Faults = []correlate.FaultExport{
		{Hour: 0, Attempts: 2, Retryable: true, Truncated: true, BadFormat: true, Message: "truncated hour"},
		{Hour: 1, Attempts: 1, Retryable: false, BadFormat: true, Message: "bit rot"},
	}
	return re
}

// seedDeltas are two frames over seedExport's inventory: hour 1 sealed,
// exercising every list of an hour delta, and a bookkeeping-only commit.
func seedDeltas() []*correlate.CheckpointDelta {
	hd := &correlate.HourDelta{
		BGRecords:   4,
		BGPackets:   9,
		BGRegisters: []correlate.RegisterDelta{{Index: 3, Rank: 2}, {Index: 11, Rank: 1}},
		Devices: []correlate.DeviceDelta{
			{ID: 3, Records: 5, Backscatter: 2, MaxScanPorts: 2, MaxScanDests: 4},
			{ID: 9, Records: 1},
		},
		UDPPorts: []correlate.PortDelta{{Port: 53, Packets: 6}},
		TCPPorts: []correlate.TCPPortDelta{{Port: 23, Packets: 7, PacketsConsumer: 3}},
		UDPKeys:  []uint64{53<<32 | 9},
		ConKeys:  []uint64{23<<32 | 3},
		CPSKeys:  []uint64{23<<32 | 9},
	}
	hd.Stats.Hour = 1
	hd.Stats.RecordsIoT = 6
	return []*correlate.CheckpointDelta{
		{Hour: hd, IngestRetried: 1},
		{IngestRetried: 1, Faults: []correlate.FaultExport{{Hour: 0, Attempts: 3, Truncated: true, Message: "late rewrite"}}},
	}
}

// withFrames appends the deltas to a checkpoint image as frames.
func withFrames(image []byte, deltas []*correlate.CheckpointDelta) []byte {
	out := append([]byte(nil), image...)
	for _, d := range deltas {
		out = append(out, encodeFrame(d)...)
	}
	return out
}

func seedCheckpoint(re *correlate.ResultExport) *correlate.CheckpointExport {
	return &correlate.CheckpointExport{
		MaxHours:      re.Hours,
		IngestedHours: []int32{0, 1},
		BGPrecision:   14,
		BGRegisters:   make([]uint8, 1<<14),
		Result:        re,
	}
}

// FuzzResultStore hammers the decoder with mutated store images. The
// contract under fuzzing: never panic, never allocate unboundedly, reject
// everything invalid with an error inside the package taxonomy, and for
// every accepted image, re-encoding the decoded state must round-trip to
// equal state (the codec has one canonical interpretation per file) — and,
// for a result, to the input's own bytes (one file per state; see
// FuzzResultCanonical, which repairs the checksums to get that far). An
// accepted checkpoint is also restored — base, then its frames replayed
// through the live merge — which may reject it but must not panic.
func FuzzResultStore(f *testing.F) {
	// In this inventory device 3 is a consumer device and device 9 a CPS
	// one, as the seed frames' membership keys need.
	g, err := wgen.New(wgen.Default(0.002, 1))
	if err != nil {
		f.Fatal(err)
	}
	c := correlate.New(g.Inventory(), correlate.Options{FaultPolicy: correlate.Lenient})
	re := seedExport()
	f.Add(encode(KindResult, re, nil))
	f.Add(encode(KindCheckpoint, re, seedCheckpoint(re)))
	// The framed seed's base holds hour 0 only, so the first frame can seal
	// hour 1 on top of it.
	re1 := seedExport()
	re1.IngestOK = 1
	cp1 := seedCheckpoint(re1)
	cp1.IngestedHours = []int32{0}
	framed := withFrames(encode(KindCheckpoint, re1, cp1), seedDeltas())
	f.Add(framed)
	f.Add(framed[:len(framed)-7]) // a torn tail frame
	if _, cp, _, err := decode(framed, KindCheckpoint); err != nil {
		f.Fatal(err)
	} else if inc, err := c.RestoreIncremental(cp); err != nil || inc.HoursIngested() != 2 {
		f.Fatalf("framed seed does not restore: %v", err)
	}
	// A few hand-damaged variants steer the fuzzer toward the guards.
	valid := encode(KindResult, re, nil)
	short := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(short)
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+12] ^= 0x80
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		gotRE, gotCP, _, err := decode(data, 0)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("error outside taxonomy: %v", err)
			}
			return
		}
		kind := KindResult
		if gotCP != nil {
			kind = KindCheckpoint
			if inc, err := c.RestoreIncremental(gotCP); err == nil {
				inc.Export()
			}
		}
		reencoded := encode(kind, gotRE, gotCP)
		if gotCP != nil {
			reencoded = withFrames(reencoded, gotCP.Deltas)
		} else if !bytes.Equal(reencoded, data) {
			t.Fatal("an accepted result re-encodes to different bytes")
		}
		re2, cp2, _, err := decode(reencoded, kind)
		if err != nil {
			t.Fatalf("re-encoded store rejected: %v", err)
		}
		if !reflect.DeepEqual(gotRE, re2) {
			t.Fatal("result export changed across re-encode")
		}
		if !reflect.DeepEqual(gotCP, cp2) {
			t.Fatal("checkpoint changed across re-encode")
		}
	})
}
