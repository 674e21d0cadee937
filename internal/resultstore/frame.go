package resultstore

import (
	"fmt"

	"iotscope/internal/correlate"
	"iotscope/internal/wal"
)

// Delta frames: what a version-2 checkpoint carries after its footer, as a
// wal open tail. One frame is one commit — at most one sealed hour plus the
// ingestion bookkeeping — appended with a single write and fsync, so a
// commit costs what the hour touched. Counts and packet totals are
// uvarints: a frame is mostly small numbers.
//
//	payload  flags u8 (1 = carries an hour)
//	         [hour: hour-stats row | bgRecords bgPackets | registers |
//	                devices | udp ports | tcp ports | udp, consumer, cps keys]
//	         retried quarantined | quarantined hours | faults
//
// Fault taxonomy (wal.Frames): a short or CRC-bad *last* frame is a torn
// append and is dropped — the hour it carried was never committed and will
// be sealed again — while a CRC-bad frame with bytes after it, a wrong tag,
// or a frame whose checked payload does not parse can only be damage to
// committed data: ErrBadFormat.

const frameHeaderLen = 1 + 4 + 4 // wal's tag | len | crc

// encodeFrame renders one delta as a complete frame, header included.
func encodeFrame(d *correlate.CheckpointDelta) []byte {
	var p wal.Enc
	if hd := d.Hour; hd != nil {
		p.U8(1)
		putHourStats(&p, &hd.Stats)
		p.Uv(hd.BGRecords)
		p.Uv(hd.BGPackets)
		p.Uv(uint64(len(hd.BGRegisters)))
		for _, r := range hd.BGRegisters {
			p.Uv(uint64(r.Index))
			p.U8(r.Rank)
		}
		p.Uv(uint64(len(hd.Devices)))
		for i := range hd.Devices {
			dd := &hd.Devices[i]
			p.Uv(uint64(dd.ID))
			p.Uv(dd.Records)
			for _, v := range dd.Packets {
				p.Uv(v)
			}
			p.Uv(dd.Backscatter)
			p.Uv(uint64(dd.MaxScanPorts))
			p.Uv(uint64(dd.MaxScanDests))
		}
		p.Uv(uint64(len(hd.UDPPorts)))
		for _, pd := range hd.UDPPorts {
			p.U16(pd.Port)
			p.Uv(pd.Packets)
		}
		p.Uv(uint64(len(hd.TCPPorts)))
		for _, pd := range hd.TCPPorts {
			p.U16(pd.Port)
			p.Uv(pd.Packets)
			p.Uv(pd.PacketsConsumer)
		}
		for _, keys := range [][]uint64{hd.UDPKeys, hd.ConKeys, hd.CPSKeys} {
			p.Uv(uint64(len(keys)))
			for _, k := range keys {
				p.Uv(k)
			}
		}
	} else {
		p.U8(0)
	}
	p.Uv(uint64(d.IngestRetried))
	p.Uv(uint64(d.IngestQuarantined))
	putHourList(&p, d.QuarantinedHours)
	putFaults(&p, d.Faults)

	return wal.AppendFrame(make([]byte, 0, frameHeaderLen+len(p.B)), secDelta, p.B)
}

// decodeFrames parses the frames after a v2 checkpoint's footer and accounts
// for them in info.
func decodeFrames(data []byte, info *Info) ([]*correlate.CheckpointDelta, error) {
	frames, torn, err := wal.Frames(data, secDelta)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	info.Frames, info.FrameBytes, info.TornBytes = len(frames), int64(len(data)-torn), int64(torn)
	var deltas []*correlate.CheckpointDelta // nil, as the base leaves it, when there are none
	for _, f := range frames {
		d, err := parseFrame(f.Payload, info.Hours)
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, d)
	}
	return deltas, nil
}

func parseFrame(payload []byte, hours int) (*correlate.CheckpointDelta, error) {
	d := &wal.Dec{B: payload}
	out := &correlate.CheckpointDelta{}
	flags := d.U8()
	if flags > 1 {
		return nil, badf("frame has unknown flag bits %#x", flags)
	}
	if flags == 1 {
		hd := &correlate.HourDelta{Stats: getHourStats(d)}
		if d.Err == nil && (hd.Stats.Hour < 0 || hd.Stats.Hour >= hours) {
			return nil, badf("frame names hour %d outside [0, %d)", hd.Stats.Hour, hours)
		}
		hd.BGRecords = d.Uv()
		hd.BGPackets = d.Uv()
		if n := d.Count(); n > 0 {
			hd.BGRegisters = make([]correlate.RegisterDelta, n)
			for i := range hd.BGRegisters {
				hd.BGRegisters[i] = correlate.RegisterDelta{Index: uint32(d.Uv()), Rank: d.U8()}
			}
		}
		if n := d.Count(); n > 0 {
			hd.Devices = make([]correlate.DeviceDelta, n)
			for i := range hd.Devices {
				dd := &hd.Devices[i]
				dd.ID = int32(d.Uv())
				dd.Records = d.Uv()
				for k := range dd.Packets {
					dd.Packets[k] = d.Uv()
				}
				dd.Backscatter = d.Uv()
				dd.MaxScanPorts = int32(d.Uv())
				dd.MaxScanDests = int32(d.Uv())
			}
		}
		if n := d.Count(); n > 0 {
			hd.UDPPorts = make([]correlate.PortDelta, n)
			for i := range hd.UDPPorts {
				hd.UDPPorts[i] = correlate.PortDelta{Port: d.U16(), Packets: d.Uv()}
			}
		}
		if n := d.Count(); n > 0 {
			hd.TCPPorts = make([]correlate.TCPPortDelta, n)
			for i := range hd.TCPPorts {
				hd.TCPPorts[i] = correlate.TCPPortDelta{Port: d.U16(), Packets: d.Uv(), PacketsConsumer: d.Uv()}
			}
		}
		for _, keys := range []*[]uint64{&hd.UDPKeys, &hd.ConKeys, &hd.CPSKeys} {
			if n := d.Count(); n > 0 {
				*keys = make([]uint64, n)
				for i := range *keys {
					(*keys)[i] = d.Uv()
				}
			}
		}
		out.Hour = hd
	}
	out.IngestRetried = int(d.Uv())
	out.IngestQuarantined = int(d.Uv())
	out.QuarantinedHours = getInt32List(d)
	var err error
	if out.Faults, err = getFaults(d); err != nil {
		return nil, err
	}
	if err := d.Finish("frame"); err != nil {
		return nil, err
	}
	return out, nil
}
