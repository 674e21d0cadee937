// Package faultfs injects deterministic storage faults into dataset files
// so that ingestion failure paths can be exercised by tests: byte-level
// truncation, bit flips, clean mid-stream cuts, a single-stepped Grower
// that reveals a live file prefix by prefix, and an Injector that
// fails the k-th write, fsync or rename of a durable writer. Every file
// operation is pure byte surgery — nothing here knows the flowtuple
// framing — which keeps the injected faults honest stand-ins for real disk
// and transfer damage.
package faultfs

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
)

// BitFlip XORs mask into the byte at offset. Offsets are resolved from the
// end of the file when negative. A flip inside a gzip member's compressed
// payload models single-bit disk or transfer corruption.
func BitFlip(path string, offset int64, mask byte) error {
	if mask == 0 {
		return fmt.Errorf("faultfs: zero mask flips nothing")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if offset < 0 {
		offset += int64(len(data))
	}
	if offset < 0 || offset >= int64(len(data)) {
		return fmt.Errorf("faultfs: offset %d outside %s (%d bytes)", offset, path, len(data))
	}
	data[offset] ^= mask
	return rewrite(path, data)
}

// Overwrite replaces the bytes at offset with data, in place. Offsets are
// resolved from the end of the file when negative. It models targeted
// metadata damage — a mangled magic, version byte, or reserved field —
// as opposed to BitFlip's random single-bit corruption.
func Overwrite(path string, offset int64, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("faultfs: empty overwrite changes nothing")
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if offset < 0 {
		offset += int64(len(buf))
	}
	if offset < 0 || offset+int64(len(data)) > int64(len(buf)) {
		return fmt.Errorf("faultfs: overwrite [%d, %d) outside %s (%d bytes)",
			offset, offset+int64(len(data)), path, len(buf))
	}
	copy(buf[offset:], data)
	return rewrite(path, buf)
}

// AppendTail appends junk bytes after the file's logical end, modelling a
// partial overwrite or a concatenated stray download.
func AppendTail(path string, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("faultfs: empty append changes nothing")
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TruncateTail drops the last n bytes of the file, modelling a copy or
// write that stopped mid-stream.
func TruncateTail(path string, n int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if n < 0 || n > info.Size() {
		return fmt.Errorf("faultfs: cannot drop %d of %d bytes from %s", n, info.Size(), path)
	}
	return os.Truncate(path, info.Size()-n)
}

// RecompressPrefix decompresses the gzip file at path, keeps only the
// first n uncompressed bytes, and recompresses them in place as a
// complete gzip member. The result is what a buffered, non-atomic writer
// that has flushed its compressor but not yet appended a footer would
// leave on disk: a cleanly cut, incomplete stream.
func RecompressPrefix(path string, n int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("faultfs: %s is not gzip: %w", path, err)
	}
	defer gz.Close()
	plain, err := io.ReadAll(gz)
	if err != nil {
		return fmt.Errorf("faultfs: decompress %s: %w", path, err)
	}
	if n < 0 || n > len(plain) {
		return fmt.Errorf("faultfs: prefix %d outside %s (%d plain bytes)", n, path, len(plain))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(plain[:n]); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return rewrite(path, buf.Bytes())
}

// UncompressedLen reports the decompressed size of a gzip file, so tests
// can compute frame-boundary cut points for RecompressPrefix.
func UncompressedLen(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return 0, err
	}
	defer gz.Close()
	n, err := io.Copy(io.Discard, gz)
	return int(n), err
}

// Grower publishes a file's bytes in increments the test controls — the
// partial-append / slow-grow fault mode for streaming ingestion. It never
// sleeps: each Grow call appends exactly the requested bytes and returns,
// so a tailer can be single-stepped through every intermediate prefix
// deterministically.
type Grower struct {
	path string
	data []byte
	off  int
}

// NewGrower creates (or truncates) path empty and prepares to reveal data
// through it.
func NewGrower(path string, data []byte) (*Grower, error) {
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		return nil, err
	}
	return &Grower{path: path, data: data}, nil
}

// Remaining reports how many bytes are still unpublished.
func (g *Grower) Remaining() int { return len(g.data) - g.off }

// Done reports whether the file has reached its full content.
func (g *Grower) Done() bool { return g.off >= len(g.data) }

// Grow appends the next min(n, Remaining()) bytes and syncs, returning
// how many were actually published.
func (g *Grower) Grow(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("faultfs: grow %d bytes grows nothing", n)
	}
	if n > g.Remaining() {
		n = g.Remaining()
	}
	if n == 0 {
		return 0, nil
	}
	f, err := os.OpenFile(g.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(g.data[g.off : g.off+n]); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	g.off += n
	return n, f.Close()
}

func rewrite(path string, data []byte) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, info.Mode().Perm())
}

// ErrInjected is the error an Injector's failed operation returns.
var ErrInjected = errors.New("faultfs: injected I/O failure")

// Injector stands between a durable writer and the os package and fails
// the K-th operation of one kind — "write", "sync" or "rename" — counting
// from 1 (K == 0 never fails, and just counts). A failed write is torn:
// part of the buffer reaches the file first — half, or the first Tear(n)
// of its n bytes when Tear is set. With Crash set the failure is the
// process dying at that operation: every later operation fails too,
// writing nothing, until Reboot. Its methods match wal.FS.
type Injector struct {
	Op    string
	K     int
	Crash bool
	Tear  func(n int) int

	counts  map[string]int
	tripped bool
	dead    bool
}

// Count returns how many operations of the kind have been attempted.
func (in *Injector) Count(op string) int { return in.counts[op] }

// Tripped reports whether the configured failure has fired.
func (in *Injector) Tripped() bool { return in.tripped }

// Dead reports whether a Crash has fired and not yet been rebooted.
func (in *Injector) Dead() bool { return in.dead }

// Reboot ends a crash: operations succeed again, as after a restart.
func (in *Injector) Reboot() { in.dead = false }

func (in *Injector) fails(op string) bool {
	if in.counts == nil {
		in.counts = make(map[string]int)
	}
	in.counts[op]++
	if in.dead {
		return true
	}
	if in.tripped || op != in.Op || in.counts[op] != in.K {
		return false
	}
	in.tripped, in.dead = true, in.Crash
	return true
}

// Write writes p to f, or — at the failure itself — tears the write and
// fails; a dead process writes nothing.
func (in *Injector) Write(f *os.File, p []byte) (int, error) {
	wasDead := in.dead
	if in.fails("write") {
		if wasDead {
			return 0, ErrInjected
		}
		keep := len(p) / 2
		if in.Tear != nil {
			keep = in.Tear(len(p))
		}
		n, _ := f.Write(p[:keep])
		return n, ErrInjected
	}
	return f.Write(p)
}

// Sync fsyncs f, or fails without syncing.
func (in *Injector) Sync(f *os.File) error {
	if in.fails("sync") {
		return ErrInjected
	}
	return f.Sync()
}

// Rename renames the file, or fails leaving both paths as they were.
func (in *Injector) Rename(oldpath, newpath string) error {
	if in.fails("rename") {
		return ErrInjected
	}
	return os.Rename(oldpath, newpath)
}
