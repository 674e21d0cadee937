package wal

import (
	"encoding/binary"
	"errors"
)

// Enc appends little-endian values to B: the write cursor payloads, headers
// and fingerprints are built with.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8)   { e.B = append(e.B, v) }
func (e *Enc) U16(v uint16) { e.B = binary.LittleEndian.AppendUint16(e.B, v) }
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) Raw(p []byte) { e.B = append(e.B, p...) }
func (e *Enc) Str(s string) { e.U32(uint32(len(s))); e.B = append(e.B, s...) }
func (e *Enc) Uv(v uint64)  { e.B = binary.AppendUvarint(e.B, v) }

// errShort marks a read past the end of a checksummed payload; since the
// payload arrived whole, underflow there is structural, not truncation.
var errShort = errors.New("short payload")

// Dec reads what Enc wrote. The first read past the end of B sets Err and
// every read after it returns zero, so a parser checks once, with Finish.
type Dec struct {
	B   []byte
	Off int
	Err error
}

// Need reports whether n more bytes can be read, failing the cursor if not.
func (d *Dec) Need(n int) bool {
	if d.Err != nil {
		return false
	}
	if len(d.B)-d.Off < n {
		d.Err = errShort
		return false
	}
	return true
}

func (d *Dec) U8() uint8 {
	if !d.Need(1) {
		return 0
	}
	v := d.B[d.Off]
	d.Off++
	return v
}

func (d *Dec) U16() uint16 {
	if !d.Need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.B[d.Off:])
	d.Off += 2
	return v
}

func (d *Dec) U32() uint32 {
	if !d.Need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.B[d.Off:])
	d.Off += 4
	return v
}

func (d *Dec) U64() uint64 {
	if !d.Need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.B[d.Off:])
	d.Off += 8
	return v
}

// Bytes returns the next n bytes, aliasing B.
func (d *Dec) Bytes(n int) []byte {
	if !d.Need(n) {
		return nil
	}
	v := d.B[d.Off : d.Off+n]
	d.Off += n
	return v
}

// Str reads a u32 length and that many bytes, the inverse of Enc.Str.
func (d *Dec) Str() string { return string(d.Bytes(int(d.U32()))) }

func (d *Dec) Uv() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.B[d.Off:])
	if n <= 0 {
		d.Err = errShort
		return 0
	}
	d.Off += n
	return v
}

// Count reads a uvarint element count and bounds it by the bytes left —
// every element takes at least one — so a hostile count cannot size an
// allocation.
func (d *Dec) Count() int {
	n := d.Uv()
	if d.Err == nil && n > uint64(len(d.B)-d.Off) {
		d.Err = errShort
	}
	if d.Err != nil {
		return 0
	}
	return int(n)
}

// Finish checks that the payload called what was consumed exactly: a
// checksummed payload that underflows or leaves bytes behind is damaged.
func (d *Dec) Finish(what string) error {
	if d.Err != nil {
		return badf("%s underflows", what)
	}
	if d.Off != len(d.B) {
		return badf("%s has %d leftover bytes", what, len(d.B)-d.Off)
	}
	return nil
}
