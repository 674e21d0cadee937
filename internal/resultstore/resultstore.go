// Package resultstore persists analyzed correlation state as a versioned,
// CRC-guarded binary artifact — the durable form of a correlate.Result
// (snapshot) or a correlate.CheckpointExport (incremental checkpoint).
//
// A store is a wal sealed container — header, one frame per section, footer,
// written by wal.WriteAtomic — and a version-2 checkpoint is that container
// followed by an open tail of delta frames, one per commit since the base was
// written (frame.go, CheckpointLog). The frame, the footer, the atomic
// replace and the torn-tail rule are internal/wal's and are stated once, in
// docs/SNAPSHOTS.md §Durability; this package owns the header and the
// payloads (all integers little-endian):
//
//	header   "IRST" | version u8 | kind u8 | reserved u16=0 | hours u32 | reserved u32=0
//	section  frame tags 1-8, each exactly once, ascending; 9 is a delta frame
//
// A file decode accepts is the one encode writes for the state it holds:
// Info.Digest, taken off the bytes, is then DigestResult of the loaded Result
// (docs/SNAPSHOTS.md §Canonical image; FuzzResultCanonical holds it).
//
// The fault taxonomy is wal's: ErrTruncated (the file ends early — possibly
// still being written, retryable) wraps ErrBadFormat (structural corruption,
// permanent), and fs.ErrNotExist passes through, so one IsRetryable covers
// the producer-not-done-yet cases.
package resultstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"

	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/wal"
)

const (
	magic = "IRST"
	// Version is the container version of a result store. Result stores
	// stay at 1: their bytes are the content address DigestResult hashes.
	Version = 1
	// CheckpointVersion is the container version of a checkpoint: 2 allows
	// delta frames after the footer. Version-1 checkpoints (a base, then
	// EOF) still load, and are rewritten as 2 by the next commit.
	CheckpointVersion = 2
)

// Kind distinguishes the two artifact flavors sharing the container.
type Kind uint8

const (
	// KindResult is a finalized batch snapshot (iotinfer -save).
	KindResult Kind = 1
	// KindCheckpoint is a resumable incremental state (iotwatch).
	KindCheckpoint Kind = 2
)

func (k Kind) String() string {
	switch k {
	case KindResult:
		return "result"
	case KindCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrBadFormat indicates a corrupt, truncated, or foreign store file, and
// ErrTruncated (which wraps it) one that ends before its footer — against a
// non-atomic producer, the signature of a store still being written. They
// are wal's errors under the names this package's callers match.
var (
	ErrBadFormat = wal.ErrBadFormat
	ErrTruncated = wal.ErrTruncated
)

// IsRetryable reports whether a load failure may resolve on its own: the
// store ends early (a producer may still be writing it) or does not exist
// yet. Structural corruption is permanent.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, fs.ErrNotExist)
}

func badf(format string, args ...any) error {
	return fmt.Errorf("resultstore: "+format+": %w", append(args, ErrBadFormat)...)
}

// Section tags (0 is wal's footer).
const (
	secMeta       = 1
	secHourly     = 2
	secDevices    = 3
	secUDP        = 4
	secTCP        = 5
	secPortHour   = 6
	secFaults     = 7
	secCheckpoint = 8
	secDelta      = 9 // only after the footer of a v2 checkpoint
)

const headerLen = 4 + 1 + 1 + 2 + 4 + 4

// Info summarizes a verified store file. For a checkpoint, BaseSize is the
// base's share of Size, Frames and FrameBytes count the intact delta frames
// a restore replays on top of it, and TornBytes is an unfinished last frame
// the reader dropped; the writer compacts once FrameBytes would exceed
// BaseSize. Digest is the CRC-32 of the sealed container: for a result, what
// DigestResult computes from the state it holds; for a checkpoint, the base's.
type Info struct {
	Kind       Kind
	Version    int
	Hours      int
	Sections   int
	Digest     uint32
	Size       int64
	BaseSize   int64
	Frames     int
	FrameBytes int64
	TornBytes  int64
}

// WriteResult encodes the finalized Result as a KindResult store at path,
// atomically (written to path+".tmp", synced, then renamed).
func WriteResult(path string, res *correlate.Result) error {
	if res == nil {
		return errors.New("resultstore: nil result")
	}
	return wal.WriteAtomic(nil, path, encode(KindResult, res.Export(), nil))
}

// ReadResult decodes a KindResult store and rebuilds the live Result.
// Every guard is checked before anything is returned; a failure is
// classified by the package taxonomy (ErrTruncated retryable,
// ErrBadFormat permanent, fs.ErrNotExist passed through).
func ReadResult(path string) (*correlate.Result, error) {
	res, _, err := LoadResult(path)
	return res, err
}

// LoadResult is ReadResult that also returns the file's summary, whose Digest
// is the loaded Result's DigestResult without the re-encode.
func LoadResult(path string) (*correlate.Result, Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Info{}, err
	}
	re, _, info, err := decode(data, KindResult)
	if err != nil {
		return nil, info, err
	}
	res, err := re.Result()
	if err != nil {
		return nil, info, badf("invalid result payload: %v", err)
	}
	return res, info, nil
}

// WriteCheckpoint encodes an incremental checkpoint as a KindCheckpoint
// store at path, atomically: a base with no frames. A live writer commits
// through CheckpointLog instead, which appends.
func WriteCheckpoint(path string, cp *correlate.CheckpointExport) error {
	if cp == nil || cp.Result == nil {
		return errors.New("resultstore: nil checkpoint")
	}
	return wal.WriteAtomic(nil, path, encode(KindCheckpoint, cp.Result, cp))
}

// ReadCheckpoint decodes a KindCheckpoint store: the base, with the delta
// frames appended since in its Deltas. The returned export is structurally
// sound at the codec level; semantic restoration (inventory bounds, sketch
// precision, replaying the deltas) happens in
// Correlator.RestoreIncremental.
func ReadCheckpoint(path string) (*correlate.CheckpointExport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, cp, _, err := decode(data, KindCheckpoint)
	if err != nil {
		return nil, err
	}
	return cp, nil
}

// DigestResult computes the content digest of a Result without touching
// disk: the CRC32 of the exact bytes WriteResult would persist. Two results
// that encode identically — the codec's byte-identity guarantee — share a
// digest, so it is a stable content address for a served snapshot (the
// read-side materialization layer derives HTTP ETags from it: same analyzed
// state across restarts keeps validating cached responses).
func DigestResult(res *correlate.Result) (uint32, error) {
	if res == nil {
		return 0, errors.New("resultstore: nil result")
	}
	return crc32.ChecksumIEEE(encode(KindResult, res.Export(), nil)), nil
}

// Verify replays the whole store — header, every section CRC, footer count
// and digest, full payload parse — without building a live Result, and
// returns its summary. This is the gate a server runs before committing to
// a snapshot swap.
func Verify(path string) (Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	_, _, info, err := decode(data, 0)
	return info, err
}

// ---- encoding ----

// The put/get pairs below are this package's domain rows on wal's cursors.

func putHourStats(e *wal.Enc, h *correlate.HourStats) {
	e.U32(uint32(h.Hour))
	e.U64(h.RecordsIoT)
	for ci := range h.PerCat {
		c := &h.PerCat[ci]
		for _, v := range c.Packets {
			e.U64(v)
		}
		e.U32(uint32(c.ActiveDevices))
		e.U64(c.UDPDstIPs)
		e.U64(c.UDPDstPorts)
		e.U32(uint32(c.UDPDevices))
		e.U64(c.ScanDstIPs)
		e.U64(c.ScanDstPorts)
		e.U32(uint32(c.ScanDevices))
	}
}

func putFaults(e *wal.Enc, faults []correlate.FaultExport) {
	e.U32(uint32(len(faults)))
	for i := range faults {
		f := &faults[i]
		e.U32(uint32(f.Hour))
		e.U32(uint32(f.Attempts))
		var flags uint8
		if f.Retryable {
			flags |= 1
		}
		if f.Truncated {
			flags |= 2
		}
		if f.BadFormat {
			flags |= 4
		}
		if f.NotExist {
			flags |= 8
		}
		e.U8(flags)
		e.Str(f.Message)
	}
}

func putHourList(e *wal.Enc, hours []int32) {
	e.U32(uint32(len(hours)))
	for _, h := range hours {
		e.U32(uint32(h))
	}
}

// Row sizes of the fixed-width part of each section's rows, for imageSize.
const (
	metaLen     = 4 + 1 + 3*8 + 3*4
	catHourLen  = 8*classify.NumClasses + 4 + 8 + 8 + 4 + 8 + 8 + 4
	hourRowLen  = 4 + 8 + 2*catHourLen
	deviceLen   = 4 + 4 + 8 + 8*classify.NumClasses + 8 + 3*4 + 4
	hourCellLen = 4 + 8
	udpPortLen  = 2 + 8 + 4
	tcpPortLen  = 2 + 8 + 8 + 4 + 4
	portHourLen = 2 + 2 + 8
	faultLen    = 4 + 4 + 1 + 4
)

// imageSize is the exact length of encode's output, so the image is built in
// one buffer that never grows (TestImageSizeIsExact holds the two together).
func imageSize(kind Kind, re *correlate.ResultExport, cp *correlate.CheckpointExport) int {
	n := headerLen + 8*frameHeaderLen + metaLen + // seven sections and wal's footer
		4 + hourRowLen*len(re.Hourly) +
		4 + deviceLen*len(re.Devices) +
		4 + udpPortLen*len(re.UDPPorts) +
		4 + tcpPortLen*len(re.TCPScanPorts) +
		4 + portHourLen*len(re.TCPPortHour) +
		4 + faultLen*len(re.Faults)
	for i := range re.Devices {
		n += hourCellLen * len(re.Devices[i].Backscatter)
	}
	for i := range re.UDPPorts {
		n += 4 * len(re.UDPPorts[i].Devices)
	}
	for i := range re.TCPScanPorts {
		n += 4 * (len(re.TCPScanPorts[i].DevicesConsumer) + len(re.TCPScanPorts[i].DevicesCPS))
	}
	for i := range re.Faults {
		n += len(re.Faults[i].Message)
	}
	if kind == KindCheckpoint {
		n += frameHeaderLen + 4 + 4 + 4*len(cp.IngestedHours) + 4 + 4*len(cp.QuarantinedHours) + 1 + 4 + len(cp.BGRegisters)
	}
	return n
}

func encode(kind Kind, re *correlate.ResultExport, cp *correlate.CheckpointExport) []byte {
	out := wal.Enc{B: make([]byte, 0, imageSize(kind, re, cp))}
	out.Raw([]byte(magic))
	if kind == KindCheckpoint {
		out.U8(CheckpointVersion)
	} else {
		out.U8(Version)
	}
	out.U8(uint8(kind))
	out.U16(0)
	out.U32(uint32(re.Hours))
	out.U32(0)

	// Each section is written in place, behind a frame header completed
	// once the section's length and checksum are known.
	section := func(tag uint8, fill func(p *wal.Enc)) {
		at := len(out.B)
		out.B = wal.BeginFrame(out.B, tag)
		fill(&out)
		wal.EndFrame(out.B, at)
	}

	section(secMeta, func(p *wal.Enc) {
		p.U32(uint32(re.Hours))
		p.U8(uint8(classify.NumClasses))
		p.U64(re.Background.Records)
		p.U64(re.Background.Packets)
		p.U64(re.Background.Sources)
		p.U32(uint32(re.IngestOK))
		p.U32(uint32(re.IngestRetried))
		p.U32(uint32(re.IngestQuarantined))
	})
	section(secHourly, func(p *wal.Enc) {
		p.U32(uint32(len(re.Hourly)))
		for i := range re.Hourly {
			putHourStats(p, &re.Hourly[i])
		}
	})
	section(secDevices, func(p *wal.Enc) {
		p.U32(uint32(len(re.Devices)))
		for i := range re.Devices {
			d := &re.Devices[i]
			p.U32(uint32(d.ID))
			p.U32(uint32(d.FirstSeen))
			p.U64(d.Records)
			for _, v := range d.Packets {
				p.U64(v)
			}
			p.U64(d.DayMask)
			p.U32(uint32(d.MaxScanPorts))
			p.U32(uint32(d.MaxScanPortsHour))
			p.U32(uint32(d.MaxScanDests))
			p.U32(uint32(len(d.Backscatter)))
			for _, hc := range d.Backscatter {
				p.U32(uint32(hc.Hour))
				p.U64(hc.Count)
			}
		}
	})
	section(secUDP, func(p *wal.Enc) {
		p.U32(uint32(len(re.UDPPorts)))
		for i := range re.UDPPorts {
			a := &re.UDPPorts[i]
			p.U16(a.Port)
			p.U64(a.Packets)
			p.U32(uint32(len(a.Devices)))
			for _, id := range a.Devices {
				p.U32(uint32(id))
			}
		}
	})
	section(secTCP, func(p *wal.Enc) {
		p.U32(uint32(len(re.TCPScanPorts)))
		for i := range re.TCPScanPorts {
			a := &re.TCPScanPorts[i]
			p.U16(a.Port)
			p.U64(a.Packets)
			p.U64(a.PacketsConsumer)
			p.U32(uint32(len(a.DevicesConsumer)))
			for _, id := range a.DevicesConsumer {
				p.U32(uint32(id))
			}
			p.U32(uint32(len(a.DevicesCPS)))
			for _, id := range a.DevicesCPS {
				p.U32(uint32(id))
			}
		}
	})
	section(secPortHour, func(p *wal.Enc) {
		p.U32(uint32(len(re.TCPPortHour)))
		for _, ph := range re.TCPPortHour {
			p.U16(ph.Port)
			p.U16(ph.Hour)
			p.U64(ph.Packets)
		}
	})
	section(secFaults, func(p *wal.Enc) { putFaults(p, re.Faults) })
	if kind == KindCheckpoint {
		section(secCheckpoint, func(p *wal.Enc) {
			p.U32(uint32(cp.MaxHours))
			putHourList(p, cp.IngestedHours)
			putHourList(p, cp.QuarantinedHours)
			p.U8(cp.BGPrecision)
			p.U32(uint32(len(cp.BGRegisters)))
			p.Raw(cp.BGRegisters)
		})
	}

	return wal.Seal(out.B, headerLen)
}

// ---- decoding ----

func getHourStats(d *wal.Dec) correlate.HourStats {
	var h correlate.HourStats
	h.Hour = int(d.U32())
	h.RecordsIoT = d.U64()
	for ci := range h.PerCat {
		c := &h.PerCat[ci]
		for k := range c.Packets {
			c.Packets[k] = d.U64()
		}
		c.ActiveDevices = int(d.U32())
		c.UDPDstIPs = d.U64()
		c.UDPDstPorts = d.U64()
		c.UDPDevices = int(d.U32())
		c.ScanDstIPs = d.U64()
		c.ScanDstPorts = d.U64()
		c.ScanDevices = int(d.U32())
	}
	return h
}

func getFaults(d *wal.Dec) ([]correlate.FaultExport, error) {
	var out []correlate.FaultExport
	n := int(d.U32())
	for i := 0; i < n && d.Err == nil; i++ {
		var fe correlate.FaultExport
		fe.Hour = int32(d.U32())
		fe.Attempts = int32(d.U32())
		flags := d.U8()
		fe.Retryable = flags&1 != 0
		fe.Truncated = flags&2 != 0
		fe.BadFormat = flags&4 != 0
		fe.NotExist = flags&8 != 0
		if flags&^uint8(15) != 0 {
			return nil, badf("fault %d has unknown flag bits %#x", i, flags)
		}
		fe.Message = d.Str()
		out = append(out, fe)
	}
	return out, nil
}

// decode parses and fully validates a store image. wantKind 0 accepts any
// kind (Verify); otherwise a kind mismatch is ErrBadFormat — asking a
// result loader to swallow a checkpoint is a caller wiring error, never a
// retry candidate.
func decode(data []byte, wantKind Kind) (*correlate.ResultExport, *correlate.CheckpointExport, Info, error) {
	var info Info
	info.Size = int64(len(data))
	if len(data) < len(magic) {
		return nil, nil, info, fmt.Errorf("resultstore: %w: short header", ErrTruncated)
	}
	if string(data[:len(magic)]) != magic {
		return nil, nil, info, badf("bad magic %q", data[:len(magic)])
	}
	if len(data) < headerLen {
		return nil, nil, info, fmt.Errorf("resultstore: %w: short header", ErrTruncated)
	}
	version := data[4]
	kind := Kind(data[5])
	if kind != KindResult && kind != KindCheckpoint {
		return nil, nil, info, badf("unknown kind %d", uint8(kind))
	}
	maxVersion := Version
	if kind == KindCheckpoint {
		maxVersion = CheckpointVersion
	}
	if version == 0 || int(version) > maxVersion {
		return nil, nil, info, badf("unsupported version %d", version)
	}
	if binary.LittleEndian.Uint16(data[6:]) != 0 || binary.LittleEndian.Uint32(data[12:]) != 0 {
		return nil, nil, info, badf("reserved header bits set")
	}
	hours := binary.LittleEndian.Uint32(data[8:])
	if hours == 0 {
		return nil, nil, info, badf("zero hours")
	}
	info.Kind = kind
	info.Version = int(version)
	info.Hours = int(hours)
	if wantKind != 0 && kind != wantKind {
		return nil, nil, info, badf("store is a %s, want %s", kind, wantKind)
	}

	maxTag := uint8(secFaults)
	if kind == KindCheckpoint {
		maxTag = secCheckpoint
	}
	frames, rest, err := wal.Unseal(data, headerLen, maxTag)
	if err != nil {
		return nil, nil, info, fmt.Errorf("resultstore: %w", err)
	}
	// Exactly the sections encode writes, in its order: one image per state.
	if len(frames) != int(maxTag) {
		return nil, nil, info, badf("%d sections, want %d", len(frames), maxTag)
	}
	var payloads [secCheckpoint + 1][]byte
	for i, f := range frames {
		if int(f.Tag) != i+1 {
			return nil, nil, info, badf("section %d has tag %d: missing, repeated or out of order", i+1, f.Tag)
		}
		payloads[f.Tag] = f.Payload
	}
	info.Sections = len(frames)
	info.BaseSize = int64(len(data) - len(rest))
	info.Digest = crc32.ChecksumIEEE(data[:info.BaseSize])
	var deltas []*correlate.CheckpointDelta
	if kind == KindCheckpoint && version >= 2 {
		if deltas, err = decodeFrames(rest, &info); err != nil {
			return nil, nil, info, err
		}
	} else if len(rest) != 0 {
		return nil, nil, info, badf("%d trailing bytes after footer", len(rest))
	}

	re, err := parseResultSections(payloads[:], int(hours))
	if err != nil {
		return nil, nil, info, err
	}
	if kind == KindResult {
		return re, nil, info, nil
	}
	cp, err := parseCheckpoint(payloads[secCheckpoint], int(hours))
	if err != nil {
		return nil, nil, info, err
	}
	cp.Result = re
	cp.Deltas = deltas
	return re, cp, info, nil
}

func parseResultSections(payloads [][]byte, hours int) (*correlate.ResultExport, error) {
	re := &correlate.ResultExport{Hours: hours}

	d := &wal.Dec{B: payloads[secMeta]}
	if int(d.U32()) != hours {
		if d.Err == nil {
			return nil, badf("meta hours disagree with header")
		}
	}
	numClasses := int(d.U8())
	re.Background.Records = d.U64()
	re.Background.Packets = d.U64()
	re.Background.Sources = d.U64()
	re.IngestOK = int(d.U32())
	re.IngestRetried = int(d.U32())
	re.IngestQuarantined = int(d.U32())
	if err := d.Finish("meta section"); err != nil {
		return nil, err
	}
	if numClasses != classify.NumClasses {
		return nil, badf("store built with %d traffic classes, this build has %d",
			numClasses, classify.NumClasses)
	}

	d = &wal.Dec{B: payloads[secHourly]}
	n := int(d.U32())
	if n != hours {
		return nil, badf("hourly section counts %d rows, header says %d", n, hours)
	}
	re.Hourly = make([]correlate.HourStats, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err == nil; i++ {
		re.Hourly = append(re.Hourly, getHourStats(d))
	}
	if err := d.Finish("hourly section"); err != nil {
		return nil, err
	}

	d = &wal.Dec{B: payloads[secDevices]}
	n = int(d.U32())
	re.Devices = make([]correlate.DeviceExport, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err == nil; i++ {
		var de correlate.DeviceExport
		de.ID = int32(d.U32())
		de.FirstSeen = int32(d.U32())
		de.Records = d.U64()
		for k := range de.Packets {
			de.Packets[k] = d.U64()
		}
		de.DayMask = d.U64()
		de.MaxScanPorts = int32(d.U32())
		de.MaxScanPortsHour = int32(d.U32())
		de.MaxScanDests = int32(d.U32())
		bn := int(d.U32())
		for j := 0; j < bn && d.Err == nil; j++ {
			de.Backscatter = append(de.Backscatter, correlate.HourCount{
				Hour:  int32(d.U32()),
				Count: d.U64(),
			})
		}
		re.Devices = append(re.Devices, de)
	}
	if err := d.Finish("devices section"); err != nil {
		return nil, err
	}

	d = &wal.Dec{B: payloads[secUDP]}
	n = int(d.U32())
	re.UDPPorts = make([]correlate.PortExport, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err == nil; i++ {
		var pe correlate.PortExport
		pe.Port = d.U16()
		pe.Packets = d.U64()
		pe.Devices = getInt32List(d)
		re.UDPPorts = append(re.UDPPorts, pe)
	}
	if err := d.Finish("udp section"); err != nil {
		return nil, err
	}

	d = &wal.Dec{B: payloads[secTCP]}
	n = int(d.U32())
	re.TCPScanPorts = make([]correlate.TCPPortExport, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err == nil; i++ {
		var pe correlate.TCPPortExport
		pe.Port = d.U16()
		pe.Packets = d.U64()
		pe.PacketsConsumer = d.U64()
		pe.DevicesConsumer = getInt32List(d)
		pe.DevicesCPS = getInt32List(d)
		re.TCPScanPorts = append(re.TCPScanPorts, pe)
	}
	if err := d.Finish("tcp section"); err != nil {
		return nil, err
	}

	d = &wal.Dec{B: payloads[secPortHour]}
	n = int(d.U32())
	re.TCPPortHour = make([]correlate.PortHourExport, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err == nil; i++ {
		re.TCPPortHour = append(re.TCPPortHour, correlate.PortHourExport{
			Port:    d.U16(),
			Hour:    d.U16(),
			Packets: d.U64(),
		})
	}
	if err := d.Finish("port-hour section"); err != nil {
		return nil, err
	}

	d = &wal.Dec{B: payloads[secFaults]}
	var err error
	if re.Faults, err = getFaults(d); err != nil {
		return nil, err
	}
	if err := d.Finish("faults section"); err != nil {
		return nil, err
	}
	return re, nil
}

// int32List reads a u32 count and that many u32 values (device or hour
// lists), nil when empty — the decode half of putHourList.
func getInt32List(d *wal.Dec) []int32 {
	n := int(d.U32())
	if n == 0 || !d.Need(n*4) {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.U32())
	}
	return out
}

func parseCheckpoint(payload []byte, hours int) (*correlate.CheckpointExport, error) {
	d := &wal.Dec{B: payload}
	cp := &correlate.CheckpointExport{MaxHours: int(d.U32())}
	if d.Err == nil && cp.MaxHours != hours {
		return nil, badf("checkpoint spans %d hours, header says %d", cp.MaxHours, hours)
	}
	cp.IngestedHours = getInt32List(d)
	cp.QuarantinedHours = getInt32List(d)
	cp.BGPrecision = d.U8()
	rn := int(d.U32())
	cp.BGRegisters = append([]uint8(nil), d.Bytes(rn)...)
	if err := d.Finish("checkpoint section"); err != nil {
		return nil, err
	}
	if cp.BGPrecision < 4 || cp.BGPrecision > 18 || rn != 1<<cp.BGPrecision {
		return nil, badf("checkpoint sketch precision %d with %d registers", cp.BGPrecision, rn)
	}
	return cp, nil
}
