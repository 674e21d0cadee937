package flowtuple

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"iotscope/internal/rng"
)

// The oracle is compress/gzip plus a frame walk written from the format's
// description, not from file.go: every test below holds the inflater and
// the Reader on it to "same inflated prefix, same records, same error
// class" against that pair.

type streamClass int

const (
	clean     streamClass = iota
	truncated             // ErrTruncated: the input ended early
	corrupt               // ErrBadFormat only
)

func (c streamClass) String() string { return [...]string{"clean", "truncated", "corrupt"}[c] }

// classOf classifies the error that ended a byte stream, as readErr does.
func classOf(err error) streamClass {
	switch {
	case err == nil:
		return clean
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return truncated
	}
	return corrupt
}

// inflateLimit bounds what either side inflates from one input, so crafted
// bombs cannot stall the fuzzer; past it only the prefix is compared.
const inflateLimit = 1 << 22

// stdlibInflate is the oracle's first half: what compress/gzip yields
// before it stops, and why it stopped (nil at a clean end).
func stdlibInflate(data []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // no member at all: Open calls it truncated
		}
		return nil, err
	}
	return io.ReadAll(io.LimitReader(zr, inflateLimit))
}

// ourInflate drains the inflater over the same bytes.
func ourInflate(data []byte) ([]byte, error) {
	z := inflaters.Get().(*inflater)
	defer inflaters.Put(z)
	z.reset(bytes.NewReader(data))
	if z.err = z.nextMember(); z.err != nil {
		if z.err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, z.err
	}
	var out []byte
	for z.err == nil && len(out) < inflateLimit {
		z.run()
		out = append(out, z.win[z.rpos:z.wpos]...)
		z.rpos = z.wpos
	}
	if len(out) >= inflateLimit {
		return out[:inflateLimit], nil
	}
	if z.err == io.EOF {
		return out, nil
	}
	return out, z.err
}

// walkFrames is the oracle's second half: the records an inflated prefix
// holds and how the file classifies, given what ended the stream.
func walkFrames(plain []byte, streamErr error) (recs []Record, class streamClass) {
	end := truncated // a stream that ends cleanly short of the footer
	if streamErr != nil {
		end = classOf(streamErr)
	}
	if len(plain) < fileHeaderLen {
		return nil, end
	}
	if string(plain[:4]) != "FTUP" || plain[4] != 1 {
		return nil, corrupt
	}
	for p := plain[fileHeaderLen:]; ; {
		switch {
		case len(p) == 0:
			return recs, end
		case p[0] == 0x01:
			if len(p) < 22 {
				return recs, end
			}
			recs = append(recs, decode(p[1:22]))
			p = p[22:]
		case p[0] == 0x00:
			if len(p) < 5 {
				return recs, end
			}
			if binary.LittleEndian.Uint32(p[1:]) != uint32(len(recs)) || len(p) > 5 || streamErr != nil {
				return recs, corrupt // count mismatch, or anything but a clean end after it
			}
			return recs, clean
		default:
			return recs, corrupt
		}
	}
}

// readFrames drains a Reader over data with the given batch size.
func readFrames(data []byte, size int) (recs []Record, class streamClass) {
	classErr := func(err error) streamClass {
		switch {
		case errors.Is(err, ErrTruncated):
			return truncated
		case errors.Is(err, ErrBadFormat):
			return corrupt
		}
		panic(fmt.Sprintf("error outside the taxonomy: %v", err))
	}
	rd, err := newReader(bytes.NewReader(data), "mem")
	if err != nil {
		return nil, classErr(err)
	}
	defer rd.Close()
	buf := make([]Record, size)
	for len(recs)*frameSize < inflateLimit {
		n, err := rd.NextBatch(buf)
		recs = append(recs, buf[:n]...)
		if err == io.EOF {
			return recs, clean
		}
		if err != nil {
			return recs, classErr(err)
		}
	}
	return recs, clean
}

// diffStdlib is the differential assertion every test and the fuzzer
// share; nil means the decoder and the Reader on it agree with the oracle.
func diffStdlib(data []byte) error {
	want, wantErr := stdlibInflate(data)
	got, gotErr := ourInflate(data)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("inflated %d bytes (%v), compress/gzip %d (%v); first difference at %d",
			len(got), gotErr, len(want), wantErr, i)
	}
	if len(want) == inflateLimit {
		return nil // both cut short by the bound: there is no end to compare
	}
	if classOf(gotErr) != classOf(wantErr) {
		return fmt.Errorf("stream ended %v (%v), compress/gzip %v (%v)",
			classOf(gotErr), gotErr, classOf(wantErr), wantErr)
	}
	wantRecs, wantClass := walkFrames(want, wantErr)
	for _, size := range []int{1, 64} {
		gotRecs, gotClass := readFrames(data, size)
		if len(gotRecs) != len(wantRecs) || gotClass != wantClass {
			return fmt.Errorf("batch=%d: %d records then %v, oracle %d then %v (stream: %v)",
				size, len(gotRecs), gotClass, len(wantRecs), wantClass, wantErr)
		}
		for i := range gotRecs {
			if gotRecs[i] != wantRecs[i] {
				return fmt.Errorf("batch=%d: record %d diverged", size, i)
			}
		}
	}
	return nil
}

func checkAgainstStdlib(t testing.TB, data []byte) {
	t.Helper()
	if err := diffStdlib(data); err != nil {
		t.Fatal(err)
	}
}

// hourPlain is the inflated form of an hour file of n records shaped like
// a telescope's: random sources, one dark /8, a few ports and sizes — so
// that even a small file is worth a dynamic block and some matches.
func hourPlain(n int, seed uint64) []byte {
	p := make([]byte, fileHeaderLen, fileHeaderLen+n*frameSize+5)
	copy(p, fileMagic[:])
	p[4] = fileVersion
	r := rng.New(seed)
	ports := [...]uint16{23, 2323, 80, 8080, 445, 5555}
	for i := 0; i < n; i++ {
		p = AppendRecord(append(p, tagRecord), Record{
			SrcIP: uint32(r.Uint64() >> 32), DstIP: 10<<24 | uint32(r.Uint64()>>32)>>8,
			SrcPort: uint16(uint32(r.Uint64() >> 32)), DstPort: ports[r.Intn(len(ports))],
			Protocol: ProtoTCP, TTL: uint8(40 + r.Intn(24)), TCPFlags: FlagSYN,
			IPLen: uint16(40 + 4*r.Intn(3)), Packets: uint32(1 + r.Intn(3)),
		})
	}
	return binary.LittleEndian.AppendUint32(append(p, tagFooter), uint32(n))
}

// gzipMember compresses plain as one gzip member.
func gzipMember(t testing.TB, plain []byte, level int, hdr gzip.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Header = hdr
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inflateSeeds is the corpus the table tests walk and FuzzInflate starts
// from: every block type, every header flag, several members, and the
// trailer lies.
func inflateSeeds(t testing.TB) map[string][]byte {
	plain := hourPlain(40, 21)
	seeds := map[string][]byte{
		"stored":       gzipMember(t, plain, gzip.NoCompression, gzip.Header{}),
		"best-speed":   gzipMember(t, plain, gzip.BestSpeed, gzip.Header{}),
		"default":      gzipMember(t, plain, gzip.DefaultCompression, gzip.Header{}),
		"best":         gzipMember(t, plain, gzip.BestCompression, gzip.Header{}),
		"huffman-only": gzipMember(t, plain, gzip.HuffmanOnly, gzip.Header{}),
		"fixed":        gzipMember(t, hourPlain(3, 22), gzip.DefaultCompression, gzip.Header{}),
		"fextra":       gzipMember(t, hourPlain(3, 23), gzip.DefaultCompression, gzip.Header{Extra: []byte("extra field")}),
		"fname":        gzipMember(t, hourPlain(3, 24), gzip.DefaultCompression, gzip.Header{Name: "hour-003.ft"}),
		"fcomment":     gzipMember(t, hourPlain(3, 25), gzip.DefaultCompression, gzip.Header{Comment: "a comment"}),
	}
	cut := fileHeaderLen + 20*frameSize
	seeds["two-members"] = append(gzipMember(t, plain[:cut], gzip.DefaultCompression, gzip.Header{}),
		gzipMember(t, plain[cut:], gzip.BestSpeed, gzip.Header{Name: "second"})...)
	seeds["empty-member-last"] = append(append([]byte(nil), seeds["fixed"]...),
		gzipMember(t, nil, gzip.DefaultCompression, gzip.Header{})...)

	// FHCRC: compress/gzip never writes one, so set the flag and splice the
	// CRC-16 of the ten header bytes in by hand; then once more, wrong.
	fixed := seeds["fixed"]
	hcrc := append([]byte(nil), fixed[:10]...)
	hcrc[3] |= 1 << 1
	hcrc = binary.LittleEndian.AppendUint16(hcrc, uint16(crc32.ChecksumIEEE(hcrc)))
	seeds["fhcrc"] = append(hcrc, fixed[10:]...)
	bad := append([]byte(nil), seeds["fhcrc"]...)
	bad[10] ^= 1
	seeds["fhcrc-wrong"] = bad

	def := seeds["default"]
	lie := append([]byte(nil), def...)
	binary.LittleEndian.PutUint32(lie[len(lie)-4:], 0xFFFFFFFF)
	seeds["isize-lies"] = lie
	lie = append([]byte(nil), def...)
	lie[len(lie)-8] ^= 1
	seeds["crc-wrong"] = lie
	seeds["trailing-garbage"] = append(append([]byte(nil), def...), "junk"...)
	seeds["reserved-flags"] = append([]byte(nil), fixed...)
	seeds["reserved-flags"][3] |= 0xE0
	// The corpus covers the three block types only if the compressor chose
	// them: BTYPE is bits 1-2 of the byte after the ten-byte header.
	for name, btype := range map[string]byte{"stored": 0, "fixed": 1, "default": 2, "best": 2, "huffman-only": 2} {
		if got := seeds[name][10] >> 1 & 3; got != btype {
			t.Fatalf("seed %q opens with block type %d, want %d", name, got, btype)
		}
	}
	return seeds
}

func TestInflateMatchesStdlib(t *testing.T) {
	for name, data := range inflateSeeds(t) {
		t.Run(name, func(t *testing.T) { checkAgainstStdlib(t, data) })
	}
	// Large enough that the window slides many times, at every level.
	plain := hourPlain(40000, 26)
	for _, level := range []int{gzip.NoCompression, gzip.BestSpeed, gzip.DefaultCompression, gzip.BestCompression, gzip.HuffmanOnly} {
		t.Run(fmt.Sprint("large/level", level), func(t *testing.T) {
			checkAgainstStdlib(t, gzipMember(t, plain, level, gzip.Header{}))
		})
	}
}

// Cut at every byte offset: the records delivered before the error are the
// tailer's cursor on a growing file, so they must be compress/gzip's.
func TestInflateCutEveryOffset(t *testing.T) {
	for name, data := range inflateSeeds(t) {
		t.Run(name, func(t *testing.T) {
			for cut := 0; cut < len(data); cut++ {
				if err := diffStdlib(data[:cut]); err != nil {
					t.Fatalf("cut at %d of %d: %v", cut, len(data), err)
				}
			}
		})
	}
}

func TestInflateFlipEveryByte(t *testing.T) {
	seeds := inflateSeeds(t)
	for _, name := range []string{"stored", "best-speed", "default", "best", "huffman-only",
		"fixed", "fextra", "fname", "fcomment", "fhcrc", "two-members"} {
		t.Run(name, func(t *testing.T) {
			data := seeds[name]
			mut := make([]byte, len(data))
			for off := range data {
				for _, mask := range []byte{1 << (off & 7), 0xFF} {
					copy(mut, data)
					mut[off] ^= mask
					if err := diffStdlib(mut); err != nil {
						t.Fatalf("flip %#02x at %d of %d: %v", mask, off, len(data), err)
					}
				}
			}
		})
	}
}

// bitWriter writes a DEFLATE stream by hand, fixed-Huffman codes only: the
// standard library's compressor cannot be told which matches to emit.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint32, n uint) {
	w.acc |= uint64(v) << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes a Huffman code, which the format packs first bit first.
func (w *bitWriter) code(c uint32, n uint) {
	for i := n; i > 0; i-- {
		w.bits(c>>(i-1)&1, 1)
	}
}

func (w *bitWriter) litlen(s uint32) {
	switch {
	case s < 144:
		w.code(0x30+s, 8)
	case s < 256:
		w.code(0x190+s-144, 9)
	case s < 280:
		w.code(s-256, 7)
	default:
		w.code(0xC0+s-280, 8)
	}
}

// RFC 1951 section 3.2.5, typed in from the RFC rather than derived.
var (
	rfcLenBase   = [29]int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	rfcLenExtra  = [29]uint{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	rfcDistBase  = [30]int{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	rfcDistExtra = [30]uint{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

func (w *bitWriter) match(length, dist int) {
	s := 28
	for rfcLenBase[s] > length {
		s--
	}
	w.litlen(uint32(257 + s))
	w.bits(uint32(length-rfcLenBase[s]), rfcLenExtra[s])
	s = 29
	for rfcDistBase[s] > dist {
		s--
	}
	w.code(uint32(s), 5)
	w.bits(uint32(dist-rfcDistBase[s]), rfcDistExtra[s])
}

// A match of every length at the distances that take the overlapped-copy
// paths (1, 2-7), the first plain one (8) and the farthest (32768), once
// as the stream's last symbols (symbol) and once with literals after it
// (fast). The expected bytes are computed here and confirmed by
// compress/flate.
func TestInflateEveryMatchLength(t *testing.T) {
	r := rng.New(31)
	history := make([]byte, histSize)
	for i := range history {
		history[i] = byte(uint32(r.Uint64() >> 32))
	}
	for _, dist := range []int{1, 2, 3, 4, 5, 6, 7, 8, histSize} {
		for length := 3; length <= 258; length++ {
			for _, tail := range []int{0, 64} {
				var w bitWriter
				// One stored block of history, then one fixed block.
				w.bits(0, 3)
				w.bits(0, 5)
				w.bits(histSize, 16)
				w.bits(^uint32(histSize)&0xFFFF, 16)
				w.buf = append(w.buf, history...)
				w.bits(1|1<<1, 3)
				w.match(length, dist)
				want := append([]byte(nil), history...)
				for i := 0; i < length; i++ {
					want = append(want, want[len(want)-dist])
				}
				for i := 0; i < tail; i++ {
					c := byte(uint32(r.Uint64() >> 32))
					w.litlen(uint32(c))
					want = append(want, c)
				}
				w.litlen(256)
				w.bits(0, 7) // pad to a byte

				ref, err := io.ReadAll(flate.NewReader(bytes.NewReader(w.buf)))
				if err != nil || !bytes.Equal(ref, want) {
					t.Fatalf("dist %d length %d: hand-written stream is wrong (%v)", dist, length, err)
				}
				got, err := ourInflate(gzipRaw(w.buf, want))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("dist %d length %d tail %d: wrong bytes (%v)", dist, length, tail, err)
				}
			}
		}
	}
}

// gzipRaw wraps a hand-written DEFLATE stream as a gzip member whose
// trailer vouches for out.
func gzipRaw(deflate, out []byte) []byte {
	gz := append([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}, deflate...)
	gz = binary.LittleEndian.AppendUint32(gz, crc32.ChecksumIEEE(out))
	return binary.LittleEndian.AppendUint32(gz, uint32(len(out)))
}

// dynamicBlock writes a final dynamic-Huffman block: HLIT, HDIST, all 19
// code-length code lengths (pre, by symbol), then whatever rest writes.
func dynamicBlock(hlit, hdist uint32, pre [19]uint32, rest func(*bitWriter)) []byte {
	var w bitWriter
	w.bits(1|2<<1, 3)
	w.bits(hlit, 5)
	w.bits(hdist, 5)
	w.bits(15, 4)
	for _, s := range codeOrder {
		w.bits(pre[s], 3)
	}
	rest(&w)
	w.bits(0, 7)
	return w.buf
}

// The code-length rules compress/flate enforces, each stated here and then
// held against compress/gzip at every cut: HLIT and HDIST out of range, a
// repeat with nothing before it or running past the end, empty, incomplete
// and over-subscribed codes, the lone one-bit distance code, an empty
// distance tree used and unused, reserved symbols and block type, and a
// distance behind the start of the output.
func TestInflateCodeLengthRules(t *testing.T) {
	// Code-length symbols 0-15 as 4-bit codes: complete, and symbol n's code
	// is n, so a list of lengths is written as is.
	var plainPre [19]uint32
	for s := 0; s < 16; s++ {
		plainPre[s] = 4
	}
	lens := func(w *bitWriter, ls ...[]uint32) {
		for _, l := range ls {
			for _, n := range l {
				w.code(n, 4)
			}
		}
	}
	rep := func(n int, v uint32) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	// Complete literal/length codes. 257 symbols: 0-254 at 8 bits (symbol s
	// is code s), 255 and end-of-block at 9 (0x1FE, 0x1FF). 258 symbols:
	// 0-253 at 8, then 254, 255, end-of-block 0x1FE and length-3 0x1FF at 9.
	lit257 := append(rep(255, 8), 9, 9)
	lit258 := append(rep(254, 8), 9, 9, 9, 9)

	type rule struct {
		deflate []byte
		out     string      // what the stream inflates to before it ends
		ends    streamClass // clean unless stated
	}
	std := func(hlit, hdist uint32, rest func(*bitWriter)) []byte {
		return dynamicBlock(hlit, hdist, plainPre, rest)
	}
	fixed := func(body func(*bitWriter)) []byte {
		var w bitWriter
		w.bits(1|1<<1, 3)
		body(&w)
		w.bits(0, 7)
		return w.buf
	}
	var pre16, pre18, preOne [19]uint32
	pre16[0], pre16[16] = 1, 1 // symbol 0 is code 0, symbol 16 code 1
	pre18[0], pre18[18] = 1, 1
	preOne[5] = 2 // a lone two-bit code: incomplete
	rules := map[string]rule{
		"hlit 287": {ends: corrupt, deflate: std(30, 0, func(w *bitWriter) {})},
		"hdist 31": {ends: corrupt, deflate: std(0, 30, func(w *bitWriter) {})},
		"hdist 32": {ends: corrupt, deflate: std(0, 31, func(w *bitWriter) {})},
		"over-subscribed": {ends: corrupt, deflate: std(0, 0, func(w *bitWriter) {
			lens(w, rep(257, 7), []uint32{1})
		})},
		"incomplete": {ends: corrupt, deflate: std(0, 0, func(w *bitWriter) {
			lens(w, rep(257, 9), []uint32{1})
		})},
		"incomplete distance code": {ends: corrupt, deflate: std(0, 1, func(w *bitWriter) {
			lens(w, lit257, []uint32{2, 2})
		})},
		"empty code-length code": {ends: corrupt, deflate: dynamicBlock(0, 0, [19]uint32{}, func(w *bitWriter) {
			w.bits(0, 32)
		})},
		"incomplete code-length code": {ends: corrupt, deflate: dynamicBlock(0, 0, preOne, func(w *bitWriter) {
			w.bits(0, 32)
		})},
		"repeat with nothing before it": {ends: corrupt, deflate: dynamicBlock(0, 0, pre16, func(w *bitWriter) {
			w.code(1, 1)
			w.bits(0, 32)
		})},
		"repeat past the end": {ends: corrupt, deflate: dynamicBlock(0, 0, pre18, func(w *bitWriter) {
			w.code(1, 1)
			w.bits(127, 7) // 138 zeros
			w.code(1, 1)
			w.bits(127, 7) // 276 of 258
			w.bits(0, 32)
		})},
		"no end-of-block code": {ends: truncated, out: "ab", deflate: std(0, 0, func(w *bitWriter) {
			lens(w, rep(256, 8), []uint32{0, 0})
			w.code('a', 8)
			w.code('b', 8)
		})},
		"empty distance tree, unused": {out: "a", deflate: std(0, 0, func(w *bitWriter) {
			lens(w, lit257, []uint32{0})
			w.code('a', 8)
			w.code(0x1FF, 9)
		})},
		"empty distance tree, used": {ends: corrupt, out: "a", deflate: std(1, 0, func(w *bitWriter) {
			lens(w, lit258, []uint32{0})
			w.code('a', 8)
			w.code(0x1FF, 9)
			w.bits(0, 16)
		})},
		"one-bit distance code": {out: "aaaa", deflate: std(1, 0, func(w *bitWriter) {
			lens(w, lit258, []uint32{1})
			w.code('a', 8)
			w.code(0x1FF, 9)
			w.code(0, 1)
			w.code(0x1FE, 9)
		})},
		"one-bit distance code, the other bit": {ends: corrupt, out: "a", deflate: std(1, 0, func(w *bitWriter) {
			lens(w, lit258, []uint32{1})
			w.code('a', 8)
			w.code(0x1FF, 9)
			w.code(1, 1)
			w.bits(0, 16)
		})},
		"distance behind the output": {ends: corrupt, out: "a", deflate: fixed(func(w *bitWriter) {
			w.litlen('a')
			w.match(3, 2)
		})},
		"length by symbol 284 reaching 258": {out: string(bytes.Repeat([]byte{'a'}, 259)), deflate: fixed(func(w *bitWriter) {
			w.litlen('a')
			w.litlen(284)
			w.bits(31, 5)
			w.code(0, 5)
			w.litlen(256)
		})},
		"reserved block type":            {ends: corrupt, deflate: []byte{1 | 3<<1, 0, 0, 0, 0}},
		"stored length not complemented": {ends: corrupt, deflate: []byte{1, 3, 0, 0xFC, 0xFE, 'a', 'b', 'c'}},
		"stored":                         {out: "abc", deflate: []byte{1, 3, 0, 0xFC, 0xFF, 'a', 'b', 'c'}},
	}
	for _, s := range []uint32{286, 287} {
		rules[fmt.Sprint("length symbol ", s)] = rule{ends: corrupt, out: "a", deflate: fixed(func(w *bitWriter) {
			w.litlen('a')
			w.litlen(s)
		})}
	}
	for _, s := range []uint32{30, 31} {
		rules[fmt.Sprint("distance symbol ", s)] = rule{ends: corrupt, out: "a", deflate: fixed(func(w *bitWriter) {
			w.litlen('a')
			w.litlen(257)
			w.code(s, 5)
		})}
	}
	for name, r := range rules {
		t.Run(name, func(t *testing.T) {
			data := gzipRaw(r.deflate, []byte(r.out))
			if r.ends == truncated {
				data = data[:len(data)-8] // the block runs into the end of the input
			}
			got, err := ourInflate(data)
			if classOf(err) != r.ends || string(got) != r.out {
				t.Fatalf("inflated %q then %v (%v); want %q then %v", got, classOf(err), err, r.out, r.ends)
			}
			for cut := len(data); cut >= 0; cut-- {
				if err := diffStdlib(data[:cut]); err != nil {
					t.Fatalf("cut at %d of %d: %v", cut, len(data), err)
				}
			}
		})
	}
}

// bombFile writes an hour file of identical records as many gzip members:
// a header, `members` copies of one member holding `per` frames, and the
// footer. DEFLATE tops out at 1032:1, so 256 MiB inflated needs some
// 260 KiB of file however it is written.
func bombFile(t testing.TB, members, per int) (path string, records int) {
	t.Helper()
	frame := AppendRecord([]byte{tagRecord}, Record{SrcIP: 1, DstIP: 2, Protocol: ProtoTCP, TCPFlags: FlagSYN, Packets: 1})
	head := hourPlain(0, 0)[:fileHeaderLen]
	body := gzipMember(t, bytes.Repeat(frame, per), gzip.BestCompression, gzip.Header{})
	records = members * per
	foot := binary.LittleEndian.AppendUint32([]byte{tagFooter}, uint32(records))
	file := gzipMember(t, head, gzip.BestCompression, gzip.Header{})
	file = append(file, bytes.Repeat(body, members)...)
	file = append(file, gzipMember(t, foot, gzip.BestCompression, gzip.Header{})...)
	path = filepath.Join(t.TempDir(), "hour-000.ft.gz")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, records
}

// The hostile-input ceiling: memory per open Reader is a constant whatever
// the file inflates to, and steady-state NextBatch allocates nothing.
func TestInflateBombBoundedMemory(t *testing.T) {
	const members, per = 65, 4 << 20 / frameSize // members of just under 4 MiB
	path, records := bombFile(t, members, per)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	inflated := int64(records) * frameSize
	if inflated < 256<<20 {
		t.Fatalf("bomb inflates to %d bytes, want >= 256 MiB", inflated)
	}
	t.Logf("%d bytes on disk inflate to %d (%d:1)", fi.Size(), inflated, inflated/fi.Size())

	batch := make([]Record, BatchSize)
	warm, err := Open(path) // fill the pool before measuring
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	got := 0
	if allocs := testing.AllocsPerRun(100, func() {
		n, err := rd.NextBatch(batch)
		if got += n; n == 0 || err != nil {
			t.Fatalf("NextBatch = %d, %v", n, err)
		}
	}); allocs != 0 {
		t.Errorf("NextBatch allocates %.1f times per call, want 0", allocs)
	}
	for {
		n, err := rd.NextBatch(batch)
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got != records {
		t.Fatalf("read %d records, wrote %d", got, records)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2<<20 {
		t.Errorf("heap grew %d bytes draining %d inflated, want < 2 MiB", grew, inflated)
	}
	if size := reflect.TypeOf(inflater{}).Size(); size > 1<<20 {
		t.Errorf("pooled decoder is %d bytes, want < 1 MiB", size)
	}
}

// What the rewrite walked past: the header slice per Open, the batch per
// WalkHourBatch, Verify's record-at-a-time drain. An hour file now costs
// what os.Open and the Reader value do, whatever its length.
func TestPerFileAllocations(t *testing.T) {
	dir := t.TempDir()
	writeHourFile(t, HourPath(dir, 0), 0, make([]Record, 3*BatchSize))
	walk := func() {
		if err := WalkHourBatch(context.Background(), dir, 0, func([]Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	verify := func() {
		if _, err := Verify(HourPath(dir, 0)); err != nil {
			t.Fatal(err)
		}
	}
	walk() // fill the pools
	for name, fn := range map[string]func(){"WalkHourBatch": walk, "Verify": verify} {
		if got := testing.AllocsPerRun(20, fn); got > 8 { // the parent commit: 9 and 8
			t.Errorf("%s allocates %.0f times per file, want <= 8", name, got)
		}
	}
}

// Lies about size are not believed: an ISIZE of 4 GiB and a dynamic block
// declaring the largest tables the format allows, then garbage, both fail
// as permanent damage, promptly, without sizing anything by the claim.
func TestInflateHostileClaims(t *testing.T) {
	isize := gzipMember(t, hourPlain(100, 41), gzip.DefaultCompression, gzip.Header{})
	binary.LittleEndian.PutUint32(isize[len(isize)-4:], 0xFFFFFFFF)

	var w bitWriter
	w.bits(1|2<<1, 3)
	w.bits(29, 5) // HLIT: 286 literal/length codes
	w.bits(29, 5) // HDIST: 30 distance codes
	w.bits(15, 4) // HCLEN: all 19 code-length codes
	r := rng.New(42)
	for i := 0; i < 1<<16; i++ {
		w.buf = append(w.buf, byte(uint32(r.Uint64()>>32)))
	}
	tables := append([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}, w.buf...)

	for name, data := range map[string][]byte{"isize-4GiB": isize, "maximal-tables-then-garbage": tables} {
		t.Run(name, func(t *testing.T) {
			checkAgainstStdlib(t, data)
			path := filepath.Join(t.TempDir(), "hour-000.ft.gz")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			Verify(path) //nolint:errcheck // warms the pool
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			_, err := Verify(path)
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFormat) || errors.Is(err, ErrTruncated) {
				t.Fatalf("Verify = %v, want permanent ErrBadFormat", err)
			}
			if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
				t.Errorf("heap grew %d bytes", grew)
			}
			if took > time.Second {
				t.Errorf("took %v", took)
			}
		})
	}
}

// FuzzInflate holds the decoder to compress/gzip on arbitrary bytes: same
// inflated prefix, same records, same error class, never a panic.
func FuzzInflate(f *testing.F) {
	for _, data := range inflateSeeds(f) {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-9])
	}
	valid := inflateSeeds(f)["default"]
	f.Add([]byte{})
	f.Add([]byte("not gzip at all"))
	f.Add(valid[:1])
	for _, off := range []int{0, 1, 3, 10, len(valid) / 2, len(valid) - 5} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstStdlib(t, data) })
}

// BenchmarkInflate reads one generated hour file's bytes both ways, so the
// ratio the reader's speed rests on is one command:
//
//	go test -run '^$' -bench Inflate -benchtime 20x ./internal/flowtuple
func BenchmarkInflate(b *testing.B) {
	data := gzipMember(b, hourPlain(200000, 1), gzip.DefaultCompression, gzip.Header{})
	plain := int64(fileHeaderLen + 200000*frameSize + 5)
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(plain)
		b.ReportAllocs()
		var zr gzip.Reader
		for i := 0; i < b.N; i++ {
			if err := zr.Reset(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
			if n, err := io.Copy(io.Discard, &zr); n != plain || err != nil {
				b.Fatal(n, err)
			}
		}
	})
	b.Run("flowtuple", func(b *testing.B) {
		b.SetBytes(plain)
		b.ReportAllocs()
		z := inflaters.Get().(*inflater)
		defer inflaters.Put(z)
		for i := 0; i < b.N; i++ {
			z.reset(bytes.NewReader(data))
			z.err = z.nextMember()
			n := int64(0)
			for z.err == nil {
				z.run()
				n += int64(z.wpos - z.rpos)
				z.rpos = z.wpos
			}
			if n != plain || z.err != io.EOF {
				b.Fatal(n, z.err)
			}
		}
	})
}
