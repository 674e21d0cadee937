package flowtuple

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File format: gzip stream containing a 16-byte header followed by framed
// records and a footer. Each frame starts with a tag byte: tagRecord
// precedes one fixed-size record, tagFooter precedes the 4-byte record
// count and ends the stream. The tag makes the footer unambiguous without
// requiring a seekable stream (gzip is not), and compresses to almost
// nothing.
//
//	magic   [4]byte "FTUP"
//	version uint8   (1)
//	_       [3]byte reserved
//	hour    uint32  hour index within the capture window
//	_       uint32  reserved
var fileMagic = [4]byte{'F', 'T', 'U', 'P'}

const (
	fileVersion   = 1
	fileHeaderLen = 16

	tagRecord byte = 0x01
	tagFooter byte = 0x00

	// TmpSuffix marks in-progress files written by Writer before the
	// atomic rename into place. Dataset scans ignore them.
	TmpSuffix = ".tmp"
)

// ErrBadFormat indicates a corrupt, truncated, or foreign flowtuple file.
var ErrBadFormat = errors.New("flowtuple: bad file format")

// ErrTruncated indicates a file that ends before its footer: the stream is
// intact as far as it goes but incomplete. Against a collector that does
// not write atomically this is the signature of an hour still being
// written, so callers may treat it as retryable; it wraps ErrBadFormat, so
// errors.Is(err, ErrBadFormat) still holds.
var ErrTruncated = fmt.Errorf("truncated: %w", ErrBadFormat)

// readErr classifies a low-level read failure: a clean or unexpected EOF
// means the stream ended early (possibly mid-write), anything else —
// gzip checksum failures, corrupt flate blocks — is structural damage.
func readErr(path, what string, err error) error {
	sentinel := ErrBadFormat
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		sentinel = ErrTruncated
	}
	return fmt.Errorf("flowtuple: %s %s (%v): %w", path, what, err, sentinel)
}

// Header describes one hourly file.
type Header struct {
	Hour  uint32
	Count uint32 // populated by Reader once the footer has been consumed
}

// Writer streams records into one hourly flowtuple file. The records are
// accumulated in a ".tmp" sibling and renamed into place by Close, so a
// reader can never observe an in-progress or abandoned hour: the final
// path either does not exist or holds a complete, footer-terminated file.
type Writer struct {
	f     *os.File
	gz    *gzip.Writer
	bw    *bufio.Writer
	buf   []byte
	count uint32
	path  string // final destination
	tmp   string // in-progress sibling
	err   error  // first fatal error; the temp file has been removed
}

// Writer pools. A gzip.Writer is about 1 MB of deflate hash tables that
// NewWriter zeroes and the collector would otherwise discard once per hour
// file; Reset re-initialises them in place and yields the same bytes a fresh
// writer does. Both layers are Reset when taken, never trusted as found, so
// what an aborted or failed file left buffered in them cannot reach the
// next one.
var (
	// gzwPool holds *gzip.Writer values; empty until the first Close.
	gzwPool sync.Pool
	// bwPool holds the record-side buffers in front of gzip.
	bwPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 1<<16) }}
)

// Create opens path for writing an hourly file. Data goes to a temporary
// sibling; the file appears at path only after a successful Close.
func Create(path string, hour uint32) (*Writer, error) {
	tmp := path + TmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("flowtuple: create %s: %w", tmp, err)
	}
	w := &Writer{f: f, path: path, tmp: tmp}
	if v := gzwPool.Get(); v != nil {
		w.gz = v.(*gzip.Writer)
		w.gz.Reset(f)
	} else {
		w.gz = gzip.NewWriter(f)
	}
	w.bw = bwPool.Get().(*bufio.Writer)
	w.bw.Reset(w.gz)
	var hdr [fileHeaderLen]byte
	copy(hdr[:], fileMagic[:])
	hdr[4] = fileVersion
	binary.LittleEndian.PutUint32(hdr[8:], hour)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return nil, w.fail(err)
	}
	return w, nil
}

// fail records the first fatal error, closes the file, and removes the
// partial temp output so no corrupt hour is ever left on disk.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	if w.f != nil {
		w.f.Close()
		os.Remove(w.tmp)
		w.f = nil
		w.recycle()
	}
	return w.err
}

// recycle returns the compression layers to their pools once the file they
// wrote to is closed. The gzip.Writer keeps pointing at that closed file
// until its next Reset; re-pointing it now would zero its tables twice.
func (w *Writer) recycle() {
	w.bw.Reset(nil)
	bwPool.Put(w.bw)
	gzwPool.Put(w.gz)
	w.bw, w.gz = nil, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if w.f == nil {
		return fmt.Errorf("flowtuple: write %s: writer closed (%w)", w.path, w.errOrClosed())
	}
	w.buf = append(w.buf[:0], tagRecord)
	w.buf = AppendRecord(w.buf, r)
	if _, err := w.bw.Write(w.buf); err != nil {
		return w.fail(fmt.Errorf("flowtuple: write %s: %w", w.path, err))
	}
	w.count++
	return nil
}

func (w *Writer) errOrClosed() error {
	if w.err != nil {
		return w.err
	}
	return os.ErrClosed
}

// Close writes the footer, syncs the temp file, and atomically renames it
// into place. On any failure the partial output is removed and the final
// path is left untouched. Close after a write failure (or abort) returns
// the stored error without side effects.
func (w *Writer) Close() error {
	if w.f == nil {
		return w.err
	}
	var footer [5]byte
	footer[0] = tagFooter
	binary.LittleEndian.PutUint32(footer[1:], w.count)
	if _, err := w.bw.Write(footer[:]); err != nil {
		return w.fail(err)
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	if err := w.gz.Close(); err != nil {
		return w.fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	f := w.f
	w.f = nil
	w.recycle()
	if err := f.Close(); err != nil {
		os.Remove(w.tmp)
		w.err = err
		return err
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		w.err = err
		return err
	}
	return nil
}

// abort discards the in-progress file without publishing it. Safe to call
// after Close or a failed Write (no-op).
func (w *Writer) abort() {
	if w.f != nil {
		w.fail(errors.New("flowtuple: writer aborted"))
	}
}

// Verify reads the file at path end to end and reports whether it is a
// complete, well-formed hour file. On success the returned Header has
// Count populated from the footer. Failures wrap ErrBadFormat, and
// additionally ErrTruncated when the file merely ends early.
func Verify(path string) (Header, error) {
	r, err := Open(path)
	if err != nil {
		return Header{}, err
	}
	defer r.Close()
	batch := batchPool.Get().(*[]Record)
	defer batchPool.Put(batch)
	for {
		if _, err := r.NextBatch(*batch); err != nil {
			if err == io.EOF {
				return r.Header(), nil
			}
			return Header{}, err
		}
	}
}

// Reader iterates the records of one hourly file. It sits directly on the
// inflater (inflate.go) and decodes frames straight out of its window, so an
// open file costs one pooled object and steady-state reading allocates
// nothing.
type Reader struct {
	f      *os.File
	z      *inflater
	header Header
	read   uint32
	path   string
}

// Open opens an hourly file and validates its header.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("flowtuple: open %s: %w", path, err)
	}
	r, err := newReader(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.f = f
	return r, nil
}

// newReader starts reading an hour file's bytes from src; path only names
// it in errors.
func newReader(src io.Reader, path string) (*Reader, error) {
	z := inflaters.Get().(*inflater)
	z.reset(src)
	r := &Reader{z: z, path: path}
	if err := z.nextMember(); err != nil {
		r.Close()
		return nil, readErr(path, "gzip open", err)
	}
	if err := z.ensure(fileHeaderLen); err != nil {
		r.Close()
		return nil, readErr(path, "short header", err)
	}
	hdr := z.win[z.rpos : z.rpos+fileHeaderLen]
	if [4]byte(hdr[:4]) != fileMagic || hdr[4] != fileVersion {
		r.Close()
		return nil, fmt.Errorf("flowtuple: %s bad magic or version: %w", path, ErrBadFormat)
	}
	r.header.Hour = binary.LittleEndian.Uint32(hdr[8:])
	z.rpos += fileHeaderLen
	return r, nil
}

// Header returns the file header. Count is only known after io.EOF.
func (r *Reader) Header() Header { return r.header }

// Next returns the next record, or io.EOF after the footer. Corrupt files
// yield an error wrapping ErrBadFormat; files that simply end before the
// footer (e.g. still being written by a non-atomic producer) additionally
// wrap ErrTruncated.
func (r *Reader) Next() (Record, error) {
	var one [1]Record
	if n, err := r.NextBatch(one[:]); n == 0 {
		return Record{}, err
	}
	return one[0], nil
}

// next1 reads one frame the framed way: tag byte, then the record or
// footer. It is the slow path shared by Next and NextBatch, and the sole
// origin of the reader's error taxonomy. A frame is consumed only once it
// is whole, so an error — and the footer's io.EOF — repeats on every later
// call.
func (r *Reader) next1() (Record, error) {
	z := r.z
	if err := z.ensure(1); err != nil {
		return Record{}, readErr(r.path, "ends before footer", err)
	}
	switch tag := z.win[z.rpos]; tag {
	case tagFooter:
		if err := z.ensure(5); err != nil {
			return Record{}, readErr(r.path, "truncated footer", err)
		}
		count := binary.LittleEndian.Uint32(z.win[z.rpos+1:])
		if count != r.read {
			return Record{}, fmt.Errorf("flowtuple: %s footer count %d, read %d: %w",
				r.path, count, r.read, ErrBadFormat)
		}
		// Only a stream that ends here, checksums verified, is clean.
		switch err := z.ensure(6); {
		case err == nil:
			return Record{}, fmt.Errorf("flowtuple: %s trailing data: %w", r.path, ErrBadFormat)
		case err != io.EOF:
			return Record{}, fmt.Errorf("flowtuple: %s damaged after footer (%v): %w", r.path, err, ErrBadFormat)
		}
		r.header.Count = count
		return Record{}, io.EOF
	case tagRecord:
		if err := z.ensure(frameSize); err != nil {
			return Record{}, readErr(r.path, "truncated record", err)
		}
		var rec Record
		decodeInto(&rec, z.win[z.rpos+1:z.rpos+frameSize])
		z.rpos += frameSize
		r.read++
		return rec, nil
	default:
		return Record{}, fmt.Errorf("flowtuple: %s unknown frame tag %#02x: %w",
			r.path, tag, ErrBadFormat)
	}
}

// Close releases the underlying file and returns the decoder to its pool.
func (r *Reader) Close() error {
	if r.z == nil {
		return nil
	}
	r.z.src = nil
	inflaters.Put(r.z)
	r.z = nil
	if r.f == nil {
		return nil
	}
	return r.f.Close()
}

// HourPath returns the canonical file name for an hour within dir.
func HourPath(dir string, hour int) string {
	return filepath.Join(dir, fmt.Sprintf("hour-%03d.ft.gz", hour))
}

// parseHourName extracts the hour index from a canonical hour file name
// ("hour-NNN.ft.gz", decimal digits only). ok is false for anything else:
// in-progress ".tmp" siblings, foreign files, and malformed names. Unlike
// the historical Sscanf parse, names past hour 999 (four or more digits)
// are accepted, since HourPath generates them for windows past %03d.
func parseHourName(name string) (int, bool) {
	const prefix, suffix = "hour-", ".ft.gz"
	if len(name) < len(prefix)+1+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if len(digits) > 9 { // bounds the value well inside int range
		return 0, false
	}
	h := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		h = h*10 + int(c-'0')
	}
	return h, true
}

// DatasetHours lists the hour indices present in a dataset directory, in
// ascending order. In-progress ".tmp" siblings and files that do not parse
// as canonical hour names are never matched. A missing directory yields an
// empty listing, matching the historical glob-based behavior.
func DatasetHours(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	hours := make([]int, 0, len(ents))
	for _, ent := range ents {
		if h, ok := parseHourName(ent.Name()); ok {
			hours = append(hours, h)
		}
	}
	sort.Ints(hours)
	return hours, nil
}
