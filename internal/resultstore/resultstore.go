// Package resultstore persists analyzed correlation state as a versioned,
// CRC-guarded binary artifact — the durable form of a correlate.Result
// (snapshot) or a correlate.CheckpointExport (incremental checkpoint).
//
// The format mirrors the flowtuple hour-file discipline: a magic/version
// header, per-section framing with independent CRC32 guards, a footer that
// commits the section count and a digest over the section checksums, and
// atomic `.tmp`+rename writes so a reader never observes a half-written
// store. The fault taxonomy mirrors flowtuple's too: ErrTruncated (the file
// ends early — possibly still being written, retryable) wraps ErrBadFormat
// (structural corruption, permanent), and fs.ErrNotExist passes through,
// so one IsRetryable covers the producer-not-done-yet cases.
//
// File layout (all integers little-endian):
//
//	header   "IRST" | version u8 | kind u8 | reserved u16=0 | hours u32 | reserved u32=0
//	section  tag u8 | payloadLen u32 | crc32(payload) u32 | payload
//	footer   tag 0 | sectionCount u32 | crc32(concatenated section CRCs) u32
//
// followed by mandatory EOF — except in a version-2 checkpoint, where the
// footer closes the base and zero or more delta frames follow, one per
// commit since the base was written (see frame.go and CheckpointLog):
//
//	frame    tag 9 | payloadLen u32 | crc32(payload) u32 | payload
//
// Unknown tags, duplicate sections, CRC or count mismatches, reserved bits
// set, and trailing bytes are all ErrBadFormat; a clean end-of-data inside a
// section is ErrTruncated. A torn or CRC-bad last frame is not an error: an
// append that never finished is dropped, and the hour it held is simply not
// yet sealed.
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

// ErrBadFormat indicates a corrupt, truncated, or foreign store file.
var ErrBadFormat = errors.New("resultstore: bad store format")

// ErrTruncated indicates a file that ends before its footer: intact as far
// as it goes but incomplete — against a non-atomic producer, the signature
// of a store still being written. It wraps ErrBadFormat, so
// errors.Is(err, ErrBadFormat) still holds.
var ErrTruncated = fmt.Errorf("resultstore: truncated: %w", ErrBadFormat)

// IsRetryable reports whether a load failure may resolve on its own: the
// store ends early (a producer may still be writing it) or does not exist
// yet. Structural corruption is permanent.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, fs.ErrNotExist)
}

func badf(format string, args ...any) error {
	return fmt.Errorf("resultstore: "+format+": %w", append(args, ErrBadFormat)...)
}

// Section tags.
const (
	secFooter     = 0
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
// BaseSize.
type Info struct {
	Kind       Kind
	Version    int
	Hours      int
	Sections   int
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
	return writeAtomic(osFS{}, path, encode(KindResult, res.Export(), nil))
}

// ReadResult decodes a KindResult store and rebuilds the live Result.
// Every guard is checked before anything is returned; a failure is
// classified by the package taxonomy (ErrTruncated retryable,
// ErrBadFormat permanent, fs.ErrNotExist passed through).
func ReadResult(path string) (*correlate.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	re, _, _, err := decode(data, KindResult)
	if err != nil {
		return nil, err
	}
	res, err := re.Result()
	if err != nil {
		return nil, badf("invalid result payload: %v", err)
	}
	return res, nil
}

// WriteCheckpoint encodes an incremental checkpoint as a KindCheckpoint
// store at path, atomically: a base with no frames. A live writer commits
// through CheckpointLog instead, which appends.
func WriteCheckpoint(path string, cp *correlate.CheckpointExport) error {
	if cp == nil || cp.Result == nil {
		return errors.New("resultstore: nil checkpoint")
	}
	return writeAtomic(osFS{}, path, encode(KindCheckpoint, cp.Result, cp))
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

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) raw(p []byte) { e.b = append(e.b, p...) }
func (e *enc) str(s string) { e.u32(uint32(len(s))); e.b = append(e.b, s...) }
func (e *enc) uv(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }

func (e *enc) hourStats(h *correlate.HourStats) {
	e.u32(uint32(h.Hour))
	e.u64(h.RecordsIoT)
	for ci := range h.PerCat {
		c := &h.PerCat[ci]
		for _, v := range c.Packets {
			e.u64(v)
		}
		e.u32(uint32(c.ActiveDevices))
		e.u64(c.UDPDstIPs)
		e.u64(c.UDPDstPorts)
		e.u32(uint32(c.UDPDevices))
		e.u64(c.ScanDstIPs)
		e.u64(c.ScanDstPorts)
		e.u32(uint32(c.ScanDevices))
	}
}

func (e *enc) faults(faults []correlate.FaultExport) {
	e.u32(uint32(len(faults)))
	for i := range faults {
		f := &faults[i]
		e.u32(uint32(f.Hour))
		e.u32(uint32(f.Attempts))
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
		e.u8(flags)
		e.str(f.Message)
	}
}

func (e *enc) hourList(hours []int32) {
	e.u32(uint32(len(hours)))
	for _, h := range hours {
		e.u32(uint32(h))
	}
}

func encode(kind Kind, re *correlate.ResultExport, cp *correlate.CheckpointExport) []byte {
	var out enc
	out.raw([]byte(magic))
	if kind == KindCheckpoint {
		out.u8(CheckpointVersion)
	} else {
		out.u8(Version)
	}
	out.u8(uint8(kind))
	out.u16(0)
	out.u32(uint32(re.Hours))
	out.u32(0)

	var crcs []byte
	sections := 0
	section := func(tag uint8, fill func(p *enc)) {
		var p enc
		fill(&p)
		sum := crc32.ChecksumIEEE(p.b)
		out.u8(tag)
		out.u32(uint32(len(p.b)))
		out.u32(sum)
		out.raw(p.b)
		crcs = binary.LittleEndian.AppendUint32(crcs, sum)
		sections++
	}

	section(secMeta, func(p *enc) {
		p.u32(uint32(re.Hours))
		p.u8(uint8(classify.NumClasses))
		p.u64(re.Background.Records)
		p.u64(re.Background.Packets)
		p.u64(re.Background.Sources)
		p.u32(uint32(re.IngestOK))
		p.u32(uint32(re.IngestRetried))
		p.u32(uint32(re.IngestQuarantined))
	})
	section(secHourly, func(p *enc) {
		p.u32(uint32(len(re.Hourly)))
		for i := range re.Hourly {
			p.hourStats(&re.Hourly[i])
		}
	})
	section(secDevices, func(p *enc) {
		p.u32(uint32(len(re.Devices)))
		for i := range re.Devices {
			d := &re.Devices[i]
			p.u32(uint32(d.ID))
			p.u32(uint32(d.FirstSeen))
			p.u64(d.Records)
			for _, v := range d.Packets {
				p.u64(v)
			}
			p.u64(d.DayMask)
			p.u32(uint32(d.MaxScanPorts))
			p.u32(uint32(d.MaxScanPortsHour))
			p.u32(uint32(d.MaxScanDests))
			p.u32(uint32(len(d.Backscatter)))
			for _, hc := range d.Backscatter {
				p.u32(uint32(hc.Hour))
				p.u64(hc.Count)
			}
		}
	})
	section(secUDP, func(p *enc) {
		p.u32(uint32(len(re.UDPPorts)))
		for i := range re.UDPPorts {
			a := &re.UDPPorts[i]
			p.u16(a.Port)
			p.u64(a.Packets)
			p.u32(uint32(len(a.Devices)))
			for _, id := range a.Devices {
				p.u32(uint32(id))
			}
		}
	})
	section(secTCP, func(p *enc) {
		p.u32(uint32(len(re.TCPScanPorts)))
		for i := range re.TCPScanPorts {
			a := &re.TCPScanPorts[i]
			p.u16(a.Port)
			p.u64(a.Packets)
			p.u64(a.PacketsConsumer)
			p.u32(uint32(len(a.DevicesConsumer)))
			for _, id := range a.DevicesConsumer {
				p.u32(uint32(id))
			}
			p.u32(uint32(len(a.DevicesCPS)))
			for _, id := range a.DevicesCPS {
				p.u32(uint32(id))
			}
		}
	})
	section(secPortHour, func(p *enc) {
		p.u32(uint32(len(re.TCPPortHour)))
		for _, ph := range re.TCPPortHour {
			p.u16(ph.Port)
			p.u16(ph.Hour)
			p.u64(ph.Packets)
		}
	})
	section(secFaults, func(p *enc) { p.faults(re.Faults) })
	if kind == KindCheckpoint {
		section(secCheckpoint, func(p *enc) {
			p.u32(uint32(cp.MaxHours))
			p.hourList(cp.IngestedHours)
			p.hourList(cp.QuarantinedHours)
			p.u8(cp.BGPrecision)
			p.u32(uint32(len(cp.BGRegisters)))
			p.raw(cp.BGRegisters)
		})
	}

	out.u8(secFooter)
	out.u32(uint32(sections))
	out.u32(crc32.ChecksumIEEE(crcs))
	return out.b
}

// ---- decoding ----

// errShort marks an out-of-data read inside a CRC-validated section; since
// the payload arrived whole, underflow there is structural, not truncation.
var errShort = errors.New("short section")

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.b)-d.off < n {
		d.err = errShort
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) bytes(n int) []byte {
	if !d.need(n) {
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *dec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = errShort
		return 0
	}
	d.off += n
	return v
}

// count reads a uvarint element count and bounds it by the bytes left —
// every element takes at least one — so a hostile count cannot size an
// allocation.
func (d *dec) count() int {
	n := d.uv()
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.err = errShort
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *dec) hourStats() correlate.HourStats {
	var h correlate.HourStats
	h.Hour = int(d.u32())
	h.RecordsIoT = d.u64()
	for ci := range h.PerCat {
		c := &h.PerCat[ci]
		for k := range c.Packets {
			c.Packets[k] = d.u64()
		}
		c.ActiveDevices = int(d.u32())
		c.UDPDstIPs = d.u64()
		c.UDPDstPorts = d.u64()
		c.UDPDevices = int(d.u32())
		c.ScanDstIPs = d.u64()
		c.ScanDstPorts = d.u64()
		c.ScanDevices = int(d.u32())
	}
	return h
}

func (d *dec) faults() ([]correlate.FaultExport, error) {
	var out []correlate.FaultExport
	n := int(d.u32())
	for i := 0; i < n && d.err == nil; i++ {
		var fe correlate.FaultExport
		fe.Hour = int32(d.u32())
		fe.Attempts = int32(d.u32())
		flags := d.u8()
		fe.Retryable = flags&1 != 0
		fe.Truncated = flags&2 != 0
		fe.BadFormat = flags&4 != 0
		fe.NotExist = flags&8 != 0
		if flags&^uint8(15) != 0 {
			return nil, badf("fault %d has unknown flag bits %#x", i, flags)
		}
		ml := int(d.u32())
		fe.Message = string(d.bytes(ml))
		out = append(out, fe)
	}
	return out, nil
}

// finish validates that the section was consumed exactly.
func (d *dec) finish(what string) error {
	if d.err != nil {
		return badf("%s section underflows", what)
	}
	if d.off != len(d.b) {
		return badf("%s section has %d leftover bytes", what, len(d.b)-d.off)
	}
	return nil
}

// decode parses and fully validates a store image. wantKind 0 accepts any
// kind (Verify); otherwise a kind mismatch is ErrBadFormat — asking a
// result loader to swallow a checkpoint is a caller wiring error, never a
// retry candidate.
func decode(data []byte, wantKind Kind) (*correlate.ResultExport, *correlate.CheckpointExport, Info, error) {
	var info Info
	info.Size = int64(len(data))
	if len(data) < len(magic) {
		return nil, nil, info, fmt.Errorf("%w: short header", ErrTruncated)
	}
	if string(data[:len(magic)]) != magic {
		return nil, nil, info, badf("bad magic %q", data[:len(magic)])
	}
	if len(data) < headerLen {
		return nil, nil, info, fmt.Errorf("%w: short header", ErrTruncated)
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

	// Walk the frames.
	payloads := map[uint8][]byte{}
	var crcs []byte
	off := headerLen
	sawFooter := false
	for !sawFooter {
		if off >= len(data) {
			return nil, nil, info, fmt.Errorf("%w: missing footer", ErrTruncated)
		}
		tag := data[off]
		off++
		if tag == secFooter {
			if len(data)-off < 8 {
				return nil, nil, info, fmt.Errorf("%w: short footer", ErrTruncated)
			}
			count := binary.LittleEndian.Uint32(data[off:])
			digest := binary.LittleEndian.Uint32(data[off+4:])
			off += 8
			if int(count) != len(payloads) {
				return nil, nil, info, badf("footer counts %d sections, read %d", count, len(payloads))
			}
			if digest != crc32.ChecksumIEEE(crcs) {
				return nil, nil, info, badf("footer digest mismatch")
			}
			sawFooter = true
			continue
		}
		maxTag := uint8(secFaults)
		if kind == KindCheckpoint {
			maxTag = secCheckpoint
		}
		if tag > maxTag {
			return nil, nil, info, badf("unknown section tag %d", tag)
		}
		if _, dup := payloads[tag]; dup {
			return nil, nil, info, badf("duplicate section tag %d", tag)
		}
		if len(data)-off < 8 {
			return nil, nil, info, fmt.Errorf("%w: short section header", ErrTruncated)
		}
		plen := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		off += 8
		if len(data)-off < int(plen) {
			return nil, nil, info, fmt.Errorf("%w: section %d body cut short", ErrTruncated, tag)
		}
		payload := data[off : off+int(plen)]
		off += int(plen)
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, nil, info, badf("section %d checksum mismatch", tag)
		}
		payloads[tag] = payload
		crcs = binary.LittleEndian.AppendUint32(crcs, sum)
	}
	info.Sections = len(payloads)
	info.BaseSize = int64(off)
	var deltas []*correlate.CheckpointDelta
	if kind == KindCheckpoint && version >= 2 {
		var err error
		if deltas, err = decodeFrames(data[off:], &info); err != nil {
			return nil, nil, info, err
		}
	} else if off != len(data) {
		return nil, nil, info, badf("%d trailing bytes after footer", len(data)-off)
	}

	required := []uint8{secMeta, secHourly, secDevices, secUDP, secTCP, secPortHour, secFaults}
	if kind == KindCheckpoint {
		required = append(required, secCheckpoint)
	}
	for _, tag := range required {
		if _, ok := payloads[tag]; !ok {
			return nil, nil, info, badf("missing section %d", tag)
		}
	}

	re, err := parseResultSections(payloads, int(hours))
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

func parseResultSections(payloads map[uint8][]byte, hours int) (*correlate.ResultExport, error) {
	re := &correlate.ResultExport{Hours: hours}

	d := &dec{b: payloads[secMeta]}
	if int(d.u32()) != hours {
		if d.err == nil {
			return nil, badf("meta hours disagree with header")
		}
	}
	numClasses := int(d.u8())
	re.Background.Records = d.u64()
	re.Background.Packets = d.u64()
	re.Background.Sources = d.u64()
	re.IngestOK = int(d.u32())
	re.IngestRetried = int(d.u32())
	re.IngestQuarantined = int(d.u32())
	if err := d.finish("meta"); err != nil {
		return nil, err
	}
	if numClasses != classify.NumClasses {
		return nil, badf("store built with %d traffic classes, this build has %d",
			numClasses, classify.NumClasses)
	}

	d = &dec{b: payloads[secHourly]}
	n := int(d.u32())
	if n != hours {
		return nil, badf("hourly section counts %d rows, header says %d", n, hours)
	}
	re.Hourly = make([]correlate.HourStats, 0, min(n, 1<<16))
	for i := 0; i < n && d.err == nil; i++ {
		re.Hourly = append(re.Hourly, d.hourStats())
	}
	if err := d.finish("hourly"); err != nil {
		return nil, err
	}

	d = &dec{b: payloads[secDevices]}
	n = int(d.u32())
	re.Devices = make([]correlate.DeviceExport, 0, min(n, 1<<16))
	for i := 0; i < n && d.err == nil; i++ {
		var de correlate.DeviceExport
		de.ID = int32(d.u32())
		de.FirstSeen = int32(d.u32())
		de.Records = d.u64()
		for k := range de.Packets {
			de.Packets[k] = d.u64()
		}
		de.DayMask = d.u64()
		de.MaxScanPorts = int32(d.u32())
		de.MaxScanPortsHour = int32(d.u32())
		de.MaxScanDests = int32(d.u32())
		bn := int(d.u32())
		for j := 0; j < bn && d.err == nil; j++ {
			de.Backscatter = append(de.Backscatter, correlate.HourCount{
				Hour:  int32(d.u32()),
				Count: d.u64(),
			})
		}
		re.Devices = append(re.Devices, de)
	}
	if err := d.finish("devices"); err != nil {
		return nil, err
	}

	d = &dec{b: payloads[secUDP]}
	n = int(d.u32())
	re.UDPPorts = make([]correlate.PortExport, 0, min(n, 1<<16))
	for i := 0; i < n && d.err == nil; i++ {
		var pe correlate.PortExport
		pe.Port = d.u16()
		pe.Packets = d.u64()
		pe.Devices = d.int32List()
		re.UDPPorts = append(re.UDPPorts, pe)
	}
	if err := d.finish("udp"); err != nil {
		return nil, err
	}

	d = &dec{b: payloads[secTCP]}
	n = int(d.u32())
	re.TCPScanPorts = make([]correlate.TCPPortExport, 0, min(n, 1<<16))
	for i := 0; i < n && d.err == nil; i++ {
		var pe correlate.TCPPortExport
		pe.Port = d.u16()
		pe.Packets = d.u64()
		pe.PacketsConsumer = d.u64()
		pe.DevicesConsumer = d.int32List()
		pe.DevicesCPS = d.int32List()
		re.TCPScanPorts = append(re.TCPScanPorts, pe)
	}
	if err := d.finish("tcp"); err != nil {
		return nil, err
	}

	d = &dec{b: payloads[secPortHour]}
	n = int(d.u32())
	re.TCPPortHour = make([]correlate.PortHourExport, 0, min(n, 1<<16))
	for i := 0; i < n && d.err == nil; i++ {
		re.TCPPortHour = append(re.TCPPortHour, correlate.PortHourExport{
			Port:    d.u16(),
			Hour:    d.u16(),
			Packets: d.u64(),
		})
	}
	if err := d.finish("port-hour"); err != nil {
		return nil, err
	}

	d = &dec{b: payloads[secFaults]}
	var err error
	if re.Faults, err = d.faults(); err != nil {
		return nil, err
	}
	if err := d.finish("faults"); err != nil {
		return nil, err
	}
	return re, nil
}

// int32List reads a u32 count and that many u32 values (device or hour
// lists), nil when empty — the decode half of enc.hourList.
func (d *dec) int32List() []int32 {
	n := int(d.u32())
	if n == 0 || !d.need(n*4) {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.u32())
	}
	return out
}

func parseCheckpoint(payload []byte, hours int) (*correlate.CheckpointExport, error) {
	d := &dec{b: payload}
	cp := &correlate.CheckpointExport{MaxHours: int(d.u32())}
	if d.err == nil && cp.MaxHours != hours {
		return nil, badf("checkpoint spans %d hours, header says %d", cp.MaxHours, hours)
	}
	cp.IngestedHours = d.int32List()
	cp.QuarantinedHours = d.int32List()
	cp.BGPrecision = d.u8()
	rn := int(d.u32())
	cp.BGRegisters = append([]uint8(nil), d.bytes(rn)...)
	if err := d.finish("checkpoint"); err != nil {
		return nil, err
	}
	if cp.BGPrecision < 4 || cp.BGPrecision > 18 || rn != 1<<cp.BGPrecision {
		return nil, badf("checkpoint sketch precision %d with %d registers", cp.BGPrecision, rn)
	}
	return cp, nil
}
