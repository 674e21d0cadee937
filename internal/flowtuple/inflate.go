package flowtuple

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
)

// The gzip + DEFLATE decoder under Reader. compress/flate pulls compressed
// bytes through one interface call each and resolves long codes through a
// second table; on hour files — mostly literals, because addresses are
// random — that is two thirds of an inference. This decoder is shaped for
// the one reader that uses it:
//
//   - the bit buffer is a uint64 topped up eight input bytes at a time;
//   - each alphabet is one flat table whose entry carries kind, base value,
//     extra-bit count and code length, so a symbol is one load;
//   - up to four literals are emitted per refill, and matches are copied
//     eight bytes at a time;
//   - output lands in a fixed window Reader decodes frames straight out of.
//
// It is resumable and its memory is a constant: the decoder suspends
// between symbols (or inside a stored block) when the window is full, and
// nothing is ever sized by ISIZE or by what a block header claims.
//
// Behaviour is compress/gzip's, pinned differentially by FuzzInflate: the
// same inflated bytes; on a damaged stream the same inflated prefix before
// the error, and the same error class (io.ErrUnexpectedEOF when the input
// ends early, anything else for structural damage). The prefix matters: the
// stream tailer's cursor on a growing file counts the records a truncated
// stream yields. So the fast loop runs only while 16 input bytes remain,
// and the last symbols of a stream go through symbol, which asks for bits
// exactly the way compress/flate does.

const (
	inSize   = 1 << 18 // compressed-side buffer; large keeps read syscalls rare
	histSize = 1 << 15 // DEFLATE's farthest match distance
	winFull  = histSize + 1<<16
	// Past winFull one more iteration of the fast loop may write four
	// literals and a 258-byte match whose 8-byte copies overshoot by 7.
	winSize = winFull + 272

	litBits  = 11 // direct-indexed bits of the literal/length table
	distBits = 8
	preBits  = 7 // the code-length code has no longer codes
	// A subtable serves at least two codes and spans at most 15-litBits
	// (15-distBits) bits, which bounds the tables whatever the code.
	litSize  = 1<<litBits + 144<<(15-litBits)
	distSize = 1<<distBits + 16<<(15-distBits)
)

// Table entries. Bits 0-3: how many bits the lookup consumes, 0 (with eBad)
// where the code assigns nothing. Bits 4-7: the extra bits after a length
// or distance code, or a subtable's index width. Bits 16-31: the literal,
// the base length or distance, or the subtable's offset.
const (
	eLit = 1 << (8 + iota)
	eEOB
	eSub
	eBad // a symbol the format reserves: lengths 286-287, distances 30-31

	eLen   = 15
	eExtra = 4
	eVal   = 16
)

var (
	errCorrupt  = errors.New("corrupt deflate stream")
	errHeader   = errors.New("invalid gzip header")
	errChecksum = errors.New("gzip checksum mismatch")

	codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

	// What each symbol decodes to, less its code length.
	litSyms, distSyms, preSyms = symbolEntries()

	// The fixed-Huffman block's tables, built once per process.
	fixedLit, fixedDist = fixedTables()
)

func symbolEntries() (lit [288]uint32, dist [32]uint32, pre [19]uint32) {
	for s := range 256 {
		lit[s] = eLit | uint32(s)<<eVal
	}
	lit[256] = eEOB
	base := uint32(3)
	for s := 257; s < 285; s++ {
		extra := uint32(max(0, (s-261)>>2))
		lit[s] = base<<eVal | extra<<eExtra
		base += 1 << extra
	}
	lit[285] = 258 << eVal
	lit[286], lit[287] = eBad, eBad
	base = 1
	for s := range 30 {
		extra := uint32(max(0, (s-2)>>1))
		dist[s] = base<<eVal | extra<<eExtra
		base += 1 << extra
	}
	dist[30], dist[31] = eBad, eBad
	for s := range pre {
		pre[s] = uint32(s) << eVal
	}
	return
}

func fixedTables() (lit *[litSize]uint32, dist *[distSize]uint32) {
	var lens [288 + 32]uint8
	for s := range lens {
		switch {
		case s < 144, s >= 280 && s < 288:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 5
		}
	}
	lit, dist = new([litSize]uint32), new([distSize]uint32)
	build(lit[:], litBits, lens[:288], litSyms[:])
	build(dist[:], distBits, lens[288:], distSyms[:])
	return
}

// build fills t, whose first 1<<tb entries are indexed by the next tb input
// bits, for the canonical code that lens assigns to the symbols syms. It
// returns the shortest code length and whether compress/flate would take
// the code: complete, or the lone one-bit code zlib emits, or empty — min 0
// and every lookup invalid, which is legal until the table is used.
func build(t []uint32, tb uint, lens []uint8, syms []uint32) (min uint, ok bool) {
	var count, offs [16]int
	for _, n := range lens {
		count[n]++
	}
	max := uint(15)
	for max > 0 && count[max] == 0 {
		max--
	}
	if max == 0 {
		noCode(t[:1<<tb])
		return 0, true
	}
	space, used := 0, 0
	for n := uint(1); n <= max; n++ {
		space = space<<1 + count[n]
		offs[n] = used
		used += count[n]
		if min == 0 && count[n] > 0 {
			min = n
		}
	}
	if space != 1<<max {
		if space != 1 || max != 1 {
			return 0, false // over-subscribed or incomplete
		}
		noCode(t[:1<<tb])
	}
	// Symbols in canonical order, each with its code bit-reversed: the
	// stream presents a code's first bit lowest.
	var sorted, rev [288]uint16
	for s, n := range lens {
		if n != 0 {
			sorted[offs[n]] = uint16(s)
			offs[n]++
		}
	}
	code, k := uint16(0), 0
	for n := uint(1); n <= max; n++ {
		for c := count[n]; c > 0; c-- {
			rev[k] = bits.Reverse16(code) >> (16 - n)
			code++
			k++
		}
		code <<= 1
	}
	k = 0
	for ; k < used && uint(lens[sorted[k]]) <= tb; k++ {
		n := uint(lens[sorted[k]])
		e := syms[sorted[k]] | uint32(n)
		for i := uint(rev[k]); i < 1<<tb; i += 1 << n {
			t[i] = e
		}
	}
	// Longer codes: those sharing their first tb bits are adjacent in
	// canonical order, the longest last, and share one subtable.
	next := uint(1) << tb
	for k < used {
		prefix := rev[k] & (1<<tb - 1)
		j := k
		for j < used && rev[j]&(1<<tb-1) == prefix {
			j++
		}
		sb := uint(lens[sorted[j-1]]) - tb
		t[prefix] = eSub | uint32(next)<<eVal | uint32(sb)<<eExtra | uint32(tb)
		for ; k < j; k++ {
			n := uint(lens[sorted[k]]) - tb
			e := syms[sorted[k]] | uint32(n)
			for i := uint(rev[k] >> tb); i < 1<<sb; i += 1 << n {
				t[next+i] = e
			}
		}
		next += 1 << sb
	}
	return min, true
}

// noCode marks entries no code reaches: reserved, and zero bits long.
func noCode(t []uint32) {
	for i := range t {
		t[i] = eBad
	}
}

type inflateState uint8

const (
	stBlock   inflateState = iota // at a block header
	stHuff                        // between symbols of a Huffman block
	stStored                      // stored bytes of a stored block remain
	stTrailer                     // after the final block of a member
)

// inflater is all the per-file state of a Reader, pooled as one object.
type inflater struct {
	src  io.Reader
	rerr error // what ended the input: io.EOF or a read error
	err  error // what ended the stream: io.EOF after a verified last member

	pos, end int    // unconsumed input is in[pos:end]
	b        uint64 // bit buffer, first bit lowest; zero above nb outside fast
	nb       uint

	// The window: win[:wpos] is inflated, win[rpos:wpos] not yet taken by
	// Reader, win[cpos:wpos] not yet checksummed. member is where this gzip
	// member's output begins, as far back as the window still reaches.
	rpos, wpos, cpos, member int
	crc, size                uint32

	state        inflateState
	final        bool
	stored       int // bytes left in a stored block
	hl           *[litSize]uint32
	hd           *[distSize]uint32
	hlMin, hdMin uint // fewest bits compress/flate asks for before a lookup
	lit          [litSize]uint32
	dist         [distSize]uint32
	pre          [1 << preBits]uint32
	lens         [288 + 32]uint8
	in           [inSize]byte
	win          [winSize]byte
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// reset points d at a new stream. The window is not cleared: no match may
// reach behind member.
func (d *inflater) reset(src io.Reader) {
	d.src, d.rerr, d.err = src, nil, nil
	d.pos, d.end, d.b, d.nb = 0, 0, 0, 0
	d.rpos, d.wpos, d.cpos = 0, 0, 0
}

// ensure inflates until n bytes are unread in the window, n at most
// histSize, or returns what ended the stream short of that.
func (d *inflater) ensure(n int) error {
	for d.wpos-d.rpos < n {
		if d.err != nil {
			return d.err
		}
		d.run()
	}
	return nil
}

// run inflates until the window is full or the stream has ended.
func (d *inflater) run() {
	if d.wpos >= winFull {
		// Everything but a partial frame has been read, so the unread tail
		// lies within the history that is kept.
		shift := d.wpos - histSize
		copy(d.win[:], d.win[shift:d.wpos])
		d.wpos, d.rpos, d.cpos = histSize, d.rpos-shift, d.cpos-shift
		d.member = max(0, d.member-shift)
	}
	for d.err == nil && d.wpos < winFull {
		switch {
		case d.state == stBlock:
			d.err = d.block()
		case d.state == stStored:
			d.err = d.copyStored()
		case d.state == stTrailer:
			d.err = d.trailer()
		case d.fill(16):
			d.err = d.fast()
		default:
			d.err = d.symbol()
		}
	}
	d.sum()
}

func (d *inflater) sum() {
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.win[d.cpos:d.wpos])
	d.size += uint32(d.wpos - d.cpos)
	d.cpos = d.wpos
}

// fill makes n input bytes available at pos, reading from the source as
// needed; n is at most inSize less a bit buffer. It first hands back the
// whole bytes the bit buffer holds, so the buffer keeps under 8 bits across
// a fill and a byte-aligned reader finds them again.
func (d *inflater) fill(n int) bool {
	for d.end-d.pos < n {
		if d.rerr != nil {
			return false
		}
		d.align(d.nb & 7)
		d.end = copy(d.in[:], d.in[d.pos:d.end])
		d.pos = 0
		k, err := d.src.Read(d.in[d.end:])
		d.end += k
		if err == nil && k == 0 {
			err = io.ErrNoProgress
		}
		d.rerr = err
	}
	return true
}

// align returns the bit buffer's whole bytes to the input, keeping its
// lowest keep bits.
func (d *inflater) align(keep uint) {
	d.pos -= int(d.nb-keep) >> 3
	d.nb = keep
	d.b &= 1<<keep - 1
}

// peek returns the next n input bytes without consuming them, or why the
// input ends first.
func (d *inflater) peek(n int) ([]byte, error) {
	if !d.fill(n) {
		return nil, d.eof()
	}
	return d.in[d.pos : d.pos+n], nil
}

// eof is the error for input that ran out: io.ErrUnexpectedEOF, or the
// read error that cut it short.
func (d *inflater) eof() error {
	if d.rerr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return d.rerr
}

// need buffers n bits, topping the buffer up from whatever input is left,
// or returns why it cannot.
func (d *inflater) need(n uint) error {
	if d.nb >= n {
		return nil
	}
	for d.nb <= 56 && (d.pos < d.end || d.fill(1)) {
		d.b |= uint64(d.in[d.pos]) << d.nb
		d.pos++
		d.nb += 8
	}
	if d.nb < n {
		return d.eof()
	}
	return nil
}

func (d *inflater) take(n uint) uint {
	v := uint(d.b) & (1<<n - 1)
	d.b >>= n
	d.nb -= n
	return v
}

// nextMember parses a gzip member header as compress/gzip does: FEXTRA,
// FNAME, FCOMMENT and FHCRC honoured, reserved flags ignored. Input that
// ends cleanly before the header is io.EOF — a series of members may be
// empty, and this is how the last one's end is found.
func (d *inflater) nextMember() error {
	hdr, err := d.peek(10)
	if err != nil {
		if d.pos == d.end && d.rerr == io.EOF {
			return io.EOF
		}
		return err
	}
	if hdr[0] != 0x1f || hdr[1] != 0x8b || hdr[2] != 8 {
		return errHeader
	}
	flg, n := hdr[3], 10
	if flg&(1<<2) != 0 { // FEXTRA
		if hdr, err = d.peek(n + 2); err != nil {
			return err
		}
		n += 2 + int(binary.LittleEndian.Uint16(hdr[n:]))
	}
	for _, f := range [2]byte{1 << 3, 1 << 4} { // FNAME, FCOMMENT
		for i := 0; flg&f != 0; i++ {
			if i == 512 { // compress/gzip's limit, NUL included
				return errHeader
			}
			if hdr, err = d.peek(n + 1); err != nil {
				return err
			}
			n++
			if hdr[n-1] == 0 {
				break
			}
		}
	}
	if flg&(1<<1) != 0 { // FHCRC
		if hdr, err = d.peek(n + 2); err != nil {
			return err
		}
		if binary.LittleEndian.Uint16(hdr[n:]) != uint16(crc32.ChecksumIEEE(hdr[:n])) {
			return errHeader
		}
		n += 2
	}
	if _, err = d.peek(n); err != nil {
		return err
	}
	d.pos += n
	d.member, d.crc, d.size, d.state = d.wpos, 0, 0, stBlock
	return nil
}

// trailer checks the member's CRC-32 and ISIZE and moves to the next member
// or the clean end of the stream.
func (d *inflater) trailer() error {
	d.align(0)
	t, err := d.peek(8)
	if err != nil {
		return err
	}
	d.sum()
	if binary.LittleEndian.Uint32(t) != d.crc || binary.LittleEndian.Uint32(t[4:]) != d.size {
		return errChecksum
	}
	d.pos += 8
	return d.nextMember()
}

func (d *inflater) endBlock() {
	d.state = stBlock
	if d.final {
		d.state = stTrailer
	}
}

func (d *inflater) block() error {
	if err := d.need(3); err != nil {
		return err
	}
	d.final = d.take(1) != 0
	switch d.take(2) {
	case 0:
		d.align(0)
		h, err := d.peek(4)
		if err != nil {
			return err
		}
		if h[0]^h[2] != 0xff || h[1]^h[3] != 0xff {
			return errCorrupt
		}
		d.pos += 4
		d.stored, d.state = int(binary.LittleEndian.Uint16(h)), stStored
	case 1:
		d.hl, d.hd, d.hlMin, d.hdMin, d.state = fixedLit, fixedDist, 7, 5, stHuff
	case 2:
		return d.dynamic()
	default:
		return errCorrupt
	}
	return nil
}

func (d *inflater) copyStored() error {
	for d.stored > 0 && d.wpos < winFull {
		if d.pos == d.end && !d.fill(1) {
			return d.eof()
		}
		n := copy(d.win[d.wpos:winFull], d.in[d.pos:min(d.end, d.pos+d.stored)])
		d.pos, d.wpos, d.stored = d.pos+n, d.wpos+n, d.stored-n
	}
	if d.stored == 0 {
		d.endBlock()
	}
	return nil
}

// dynamic reads a dynamic block's code lengths and builds its tables,
// rejecting what compress/flate rejects in the order it does.
func (d *inflater) dynamic() error {
	if err := d.need(14); err != nil {
		return err
	}
	nlit, ndist, nclen := int(d.take(5))+257, int(d.take(5))+1, int(d.take(4))+4
	if nlit > 286 || ndist > 30 {
		return errCorrupt
	}
	var pl [19]uint8
	for _, s := range codeOrder[:nclen] {
		if err := d.need(3); err != nil {
			return err
		}
		pl[s] = uint8(d.take(3))
	}
	pmin, ok := build(d.pre[:], preBits, pl[:], preSyms[:])
	if !ok {
		return errCorrupt
	}
	for i, n := 0, nlit+ndist; i < n; {
		e, err := d.sym(d.pre[:], preBits, pmin)
		if err != nil {
			return err
		}
		s := e >> eVal
		if s < 16 {
			d.lens[i] = uint8(s)
			i++
			continue
		}
		rep, nb, v := 3, uint(s-14), uint8(0) // 16: 2 bits, 17: 3 bits
		switch s {
		case 16:
			if i == 0 {
				return errCorrupt
			}
			v = d.lens[i-1]
		case 18:
			rep, nb = 11, 7
		}
		if err := d.need(nb); err != nil {
			return err
		}
		if rep += int(d.take(nb)); i+rep > n {
			return errCorrupt
		}
		for ; rep > 0; rep-- {
			d.lens[i] = v
			i++
		}
	}
	var okl, okd bool
	d.hlMin, okl = build(d.lit[:], litBits, d.lens[:nlit], litSyms[:])
	d.hdMin, okd = build(d.dist[:], distBits, d.lens[nlit:nlit+ndist], distSyms[:])
	if !okl || !okd {
		return errCorrupt
	}
	// compress/flate asks for at least the end-of-block code's length before
	// each literal/length lookup, so that it never reads past the stream.
	d.hlMin = max(d.hlMin, uint(d.lens[256]))
	d.hl, d.hd, d.state = &d.lit, &d.dist, stHuff
	return nil
}

// sym decodes one symbol of t the way compress/flate does on a stream that
// may end here: it wants min bits before looking, fails as corrupt where
// the code assigns nothing, and as truncated when the code it finds is
// longer than the bits that are left.
func (d *inflater) sym(t []uint32, tb, min uint) (uint32, error) {
	if d.need(15) != nil && d.nb < min {
		return 0, d.eof()
	}
	e := t[d.b&(1<<tb-1)]
	n := uint(e & eLen)
	if e&eSub != 0 {
		e = t[uint(e>>eVal)+uint(d.b>>tb)&(1<<(e>>eExtra&15)-1)]
		n += uint(e & eLen)
	}
	if e&eLen == 0 {
		return 0, errCorrupt
	}
	if n > d.nb {
		return 0, d.eof()
	}
	d.take(n)
	return e, nil
}

// extra adds a length or distance entry's extra bits to its base.
func (d *inflater) extra(e uint32) (int, error) {
	if e&eBad != 0 {
		return 0, errCorrupt
	}
	if err := d.need(uint(e >> eExtra & 15)); err != nil {
		return 0, err
	}
	return int(e>>eVal) + int(d.take(uint(e>>eExtra&15))), nil
}

// symbol decodes one literal, match or end of block, checking for every
// bit. It runs only within 16 bytes of the end of the input.
func (d *inflater) symbol() error {
	e, err := d.sym(d.hl[:], litBits, d.hlMin)
	switch {
	case err != nil:
		return err
	case e&eLit != 0:
		d.win[d.wpos] = byte(e >> eVal)
		d.wpos++
		return nil
	case e&eEOB != 0:
		d.endBlock()
		return nil
	}
	length, err := d.extra(e)
	if err != nil {
		return err
	}
	if e, err = d.sym(d.hd[:], distBits, d.hdMin); err != nil {
		return err
	}
	dist, err := d.extra(e)
	if err != nil {
		return err
	}
	if dist > d.wpos-d.member {
		return errCorrupt
	}
	for ; length > 0; length-- {
		d.win[d.wpos] = d.win[d.wpos-dist]
		d.wpos++
	}
	return nil
}

// fast decodes symbols while 16 input bytes remain and the window has
// room. A refill loads 8 bytes, so at least 56 bits are buffered after it:
// enough for four literals from the direct table (44 bits) and a look at
// what follows, or for the longest match (15+5 bits of length, 15+13 of
// distance) with no check in between — and all of them real input, so
// nothing here can be a truncation.
func (d *inflater) fast() (err error) {
	in, win, hl, hd := d.in[:d.end], &d.win, d.hl, d.hd
	pos, b, nb, w := d.pos, d.b, d.nb, d.wpos
	for len(in)-pos >= 16 && w < winFull {
		b |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
		pos += int(63-nb) >> 3
		nb |= 56
		e := hl[b&(1<<litBits-1)]
		for i := 0; i < 4 && e&eLit != 0; i++ {
			b, nb = b>>(e&eLen), nb-uint(e&eLen)
			win[w] = byte(e >> eVal)
			w++
			e = hl[b&(1<<litBits-1)]
		}
		if e&eLit != 0 {
			continue
		}
		if nb < 48 {
			b |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
			pos += int(63-nb) >> 3
			nb |= 56
		}
		if e&eSub != 0 {
			b, nb = b>>(e&eLen), nb-uint(e&eLen)
			e = hl[uint(e>>eVal)+uint(b)&(1<<(e>>eExtra&15)-1)]
		}
		b, nb = b>>(e&eLen), nb-uint(e&eLen)
		if e&(eLit|eEOB|eBad) != 0 {
			if e&eLit != 0 {
				win[w] = byte(e >> eVal)
				w++
				continue
			}
			if e&eBad != 0 {
				err = errCorrupt
			} else {
				d.endBlock()
			}
			break
		}
		x := uint(e >> eExtra & 15)
		length := int(e>>eVal) + int(uint(b)&(1<<x-1))
		b, nb = b>>x, nb-x

		e = hd[b&(1<<distBits-1)]
		if e&eSub != 0 {
			b, nb = b>>(e&eLen), nb-uint(e&eLen)
			e = hd[uint(e>>eVal)+uint(b)&(1<<(e>>eExtra&15)-1)]
		}
		x = uint(e >> eExtra & 15)
		b, nb = b>>(e&eLen), nb-uint(e&eLen)
		dist := int(e>>eVal) + int(uint(b)&(1<<x-1))
		b, nb = b>>x, nb-x
		if e&eBad != 0 || dist > w-d.member {
			err = errCorrupt
			break
		}
		src, end := w-dist, w+length
		if dist >= 8 {
			for ; w < end; w, src = w+8, src+8 {
				binary.LittleEndian.PutUint64(win[w:], binary.LittleEndian.Uint64(win[src:]))
			}
		} else {
			for ; w < end; w, src = w+1, src+1 {
				win[w] = win[src]
			}
		}
		w = end
	}
	d.pos, d.b, d.nb, d.wpos = pos, b&(1<<nb-1), nb, w
	return err
}
