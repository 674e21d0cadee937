package resultstore

import (
	"encoding/binary"
	"hash/crc32"

	"iotscope/internal/correlate"
)

// Delta frames: what a version-2 checkpoint carries after its footer. One
// frame is one commit — at most one sealed hour plus the ingestion
// bookkeeping — CRC-framed like a section and appended with a single write
// and fsync, so a commit costs what the hour touched. Counts and packet
// totals are uvarints: a frame is mostly small numbers.
//
//	payload  flags u8 (1 = carries an hour)
//	         [hour: hour-stats row | bgRecords bgPackets | registers |
//	                devices | udp ports | tcp ports | udp, consumer, cps keys]
//	         retried quarantined | quarantined hours | faults
//
// Fault taxonomy. Frames are only ever appended, and an append that did not
// finish leaves a prefix of one frame at the end of the file; everything
// before it was fsynced by an earlier commit. So a short or CRC-bad *last*
// frame is a torn append and is dropped — the hour it carried was never
// committed and will be sealed again — while a CRC-bad frame with bytes
// after it, a wrong tag, or a frame whose checked payload does not parse
// can only be damage to committed data: ErrBadFormat.

const frameHeaderLen = 1 + 4 + 4

// encodeFrame renders one delta as a complete frame, header included.
func encodeFrame(d *correlate.CheckpointDelta) []byte {
	p := enc{b: make([]byte, frameHeaderLen, 4096)}
	if hd := d.Hour; hd != nil {
		p.u8(1)
		p.hourStats(&hd.Stats)
		p.uv(hd.BGRecords)
		p.uv(hd.BGPackets)
		p.uv(uint64(len(hd.BGRegisters)))
		for _, r := range hd.BGRegisters {
			p.uv(uint64(r.Index))
			p.u8(r.Rank)
		}
		p.uv(uint64(len(hd.Devices)))
		for i := range hd.Devices {
			dd := &hd.Devices[i]
			p.uv(uint64(dd.ID))
			p.uv(dd.Records)
			for _, v := range dd.Packets {
				p.uv(v)
			}
			p.uv(dd.Backscatter)
			p.uv(uint64(dd.MaxScanPorts))
			p.uv(uint64(dd.MaxScanDests))
		}
		p.uv(uint64(len(hd.UDPPorts)))
		for _, pd := range hd.UDPPorts {
			p.u16(pd.Port)
			p.uv(pd.Packets)
		}
		p.uv(uint64(len(hd.TCPPorts)))
		for _, pd := range hd.TCPPorts {
			p.u16(pd.Port)
			p.uv(pd.Packets)
			p.uv(pd.PacketsConsumer)
		}
		for _, keys := range [][]uint64{hd.UDPKeys, hd.ConKeys, hd.CPSKeys} {
			p.uv(uint64(len(keys)))
			for _, k := range keys {
				p.uv(k)
			}
		}
	} else {
		p.u8(0)
	}
	p.uv(uint64(d.IngestRetried))
	p.uv(uint64(d.IngestQuarantined))
	p.hourList(d.QuarantinedHours)
	p.faults(d.Faults)

	payload := p.b[frameHeaderLen:]
	p.b[0] = secDelta
	binary.LittleEndian.PutUint32(p.b[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(p.b[5:], crc32.ChecksumIEEE(payload))
	return p.b
}

// decodeFrames parses the frames after a v2 checkpoint's footer, applying
// the tail-versus-interior taxonomy above, and accounts for them in info.
func decodeFrames(data []byte, info *Info) ([]*correlate.CheckpointDelta, error) {
	var deltas []*correlate.CheckpointDelta
	for off := 0; off < len(data); {
		rest := data[off:]
		if len(rest) < frameHeaderLen {
			info.TornBytes = int64(len(rest))
			break
		}
		if rest[0] != secDelta {
			return nil, badf("frame %d has tag %d", len(deltas), rest[0])
		}
		plen := int(binary.LittleEndian.Uint32(rest[1:]))
		sum := binary.LittleEndian.Uint32(rest[5:])
		if len(rest)-frameHeaderLen < plen {
			info.TornBytes = int64(len(rest))
			break
		}
		size := frameHeaderLen + plen
		payload := rest[frameHeaderLen:size]
		if crc32.ChecksumIEEE(payload) != sum {
			if size == len(rest) {
				info.TornBytes = int64(size)
				break
			}
			return nil, badf("frame %d checksum mismatch", len(deltas))
		}
		d, err := parseFrame(payload, info.Hours)
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, d)
		info.Frames++
		info.FrameBytes += int64(size)
		off += size
	}
	return deltas, nil
}

func parseFrame(payload []byte, hours int) (*correlate.CheckpointDelta, error) {
	d := &dec{b: payload}
	out := &correlate.CheckpointDelta{}
	flags := d.u8()
	if flags > 1 {
		return nil, badf("frame has unknown flag bits %#x", flags)
	}
	if flags == 1 {
		hd := &correlate.HourDelta{Stats: d.hourStats()}
		if d.err == nil && (hd.Stats.Hour < 0 || hd.Stats.Hour >= hours) {
			return nil, badf("frame names hour %d outside [0, %d)", hd.Stats.Hour, hours)
		}
		hd.BGRecords = d.uv()
		hd.BGPackets = d.uv()
		if n := d.count(); n > 0 {
			hd.BGRegisters = make([]correlate.RegisterDelta, n)
			for i := range hd.BGRegisters {
				hd.BGRegisters[i] = correlate.RegisterDelta{Index: uint32(d.uv()), Rank: d.u8()}
			}
		}
		if n := d.count(); n > 0 {
			hd.Devices = make([]correlate.DeviceDelta, n)
			for i := range hd.Devices {
				dd := &hd.Devices[i]
				dd.ID = int32(d.uv())
				dd.Records = d.uv()
				for k := range dd.Packets {
					dd.Packets[k] = d.uv()
				}
				dd.Backscatter = d.uv()
				dd.MaxScanPorts = int32(d.uv())
				dd.MaxScanDests = int32(d.uv())
			}
		}
		if n := d.count(); n > 0 {
			hd.UDPPorts = make([]correlate.PortDelta, n)
			for i := range hd.UDPPorts {
				hd.UDPPorts[i] = correlate.PortDelta{Port: d.u16(), Packets: d.uv()}
			}
		}
		if n := d.count(); n > 0 {
			hd.TCPPorts = make([]correlate.TCPPortDelta, n)
			for i := range hd.TCPPorts {
				hd.TCPPorts[i] = correlate.TCPPortDelta{Port: d.u16(), Packets: d.uv(), PacketsConsumer: d.uv()}
			}
		}
		for _, keys := range []*[]uint64{&hd.UDPKeys, &hd.ConKeys, &hd.CPSKeys} {
			if n := d.count(); n > 0 {
				*keys = make([]uint64, n)
				for i := range *keys {
					(*keys)[i] = d.uv()
				}
			}
		}
		out.Hour = hd
	}
	out.IngestRetried = int(d.uv())
	out.IngestQuarantined = int(d.uv())
	out.QuarantinedHours = d.int32List()
	var err error
	if out.Faults, err = d.faults(); err != nil {
		return nil, err
	}
	if err := d.finish("frame"); err != nil {
		return nil, err
	}
	return out, nil
}
