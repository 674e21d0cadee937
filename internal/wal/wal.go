// Package wal is the one durable-write primitive under every file this
// system keeps across a crash: result stores and checkpoints (resultstore),
// queue segments and the delivery log (outqueue), the alert journal
// (stream) and dataset provenance stamps (scenario). It owns four things
// those packages used to hand-roll — the byte cursors payloads are written
// with (cursor.go), the CRC frame and the sealed container built from it
// (frame.go), the atomic whole-file replace, and the crash-safe append with
// its torn-tail rule (this file) — and one fault taxonomy: ErrTruncated (the
// bytes end early; a producer may still be writing) wraps ErrBadFormat
// (committed bytes are damaged; permanent). docs/SNAPSHOTS.md §Durability
// states the promises once; formats built on top document only their header
// and payloads.
//
// Every write that decides durability goes through the three-method FS
// seam, so a test can fail or tear the k-th write, fsync or rename of any
// writer (faultfs.Injector) and enumerate its crash points.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrBadFormat marks structural damage to committed bytes: a checksum or
// count that does not hold, an unknown tag, a payload that does not parse.
var ErrBadFormat = errors.New("wal: bad format")

// ErrTruncated marks a sealed container that ends before its footer: intact
// as far as it goes. It wraps ErrBadFormat.
var ErrTruncated = fmt.Errorf("wal: truncated: %w", ErrBadFormat)

// FS is the three operations a durable write can lose data at. nil means
// the os package wherever an FS is accepted.
type FS interface {
	Write(f *os.File, p []byte) (int, error)
	Sync(f *os.File) error
	Rename(oldpath, newpath string) error
}

type disk struct{}

func (disk) Write(f *os.File, p []byte) (int, error) { return f.Write(p) }
func (disk) Sync(f *os.File) error                   { return f.Sync() }
func (disk) Rename(oldpath, newpath string) error    { return os.Rename(oldpath, newpath) }

func orDisk(fsys FS) FS {
	if fsys == nil {
		return disk{}
	}
	return fsys
}

// WriteAtomic replaces path with data: written to path+".tmp", fsynced,
// closed, then renamed over path, so a reader sees the old file or the new
// one and never part of either. A failure leaves path as it was.
func WriteAtomic(fsys FS, path string, data []byte) error {
	fsys = orDisk(fsys)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = fsys.Write(f, data)
	if err == nil {
		err = fsys.Sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Appender is a crash-safe append-only file. Each Append is one write and
// one fsync, so the file is always a durable prefix followed by at most one
// torn append; the torn tail is cut off when the file is next opened, or
// before the next Append if the process survived the failure. Not safe for
// concurrent use.
type Appender struct {
	fsys FS
	f    *os.File
	size int64 // every byte below it is durable and valid
	torn bool  // bytes past size may exist
}

// OpenAppend opens (or creates) the file at path for appending. keep scans
// the file's current contents — replaying them into the caller's state —
// and reports how long a prefix is valid; the rest is a torn append and is
// truncated away. An error from keep means damage before the tail and fails
// the open. A nil keep vouches for the whole file without reading it.
func OpenAppend(fsys FS, path string, keep func(data []byte) (int, error)) (*Appender, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	a := &Appender{fsys: orDisk(fsys), f: f}
	if err := a.scan(keep); err != nil {
		f.Close()
		return nil, err
	}
	return a, nil
}

func (a *Appender) scan(keep func(data []byte) (int, error)) error {
	fi, err := a.f.Stat()
	if err != nil {
		return err
	}
	a.size = fi.Size()
	if keep == nil {
		return nil
	}
	data := make([]byte, a.size)
	if _, err := io.ReadFull(a.f, data); err != nil {
		return err
	}
	n, err := keep(data)
	if err != nil {
		return err
	}
	a.size, a.torn = int64(n), n < len(data)
	return a.rewind()
}

// rewind drops whatever a failed append left past the durable offset.
func (a *Appender) rewind() error {
	if !a.torn {
		return nil
	}
	if err := a.f.Truncate(a.size); err != nil {
		return err
	}
	a.torn = false
	return nil
}

// Append writes p and makes it durable. On an error some prefix of p may be
// in the file; the next Append (or the next open) removes it first, so a
// caller may simply retry.
func (a *Appender) Append(p []byte) error {
	if err := a.rewind(); err != nil {
		return err
	}
	a.torn = true
	if _, err := a.fsys.Write(a.f, p); err != nil {
		return err
	}
	if err := a.fsys.Sync(a.f); err != nil {
		return err
	}
	a.size += int64(len(p))
	a.torn = false
	return nil
}

// Close releases the file; every successful Append was already synced.
func (a *Appender) Close() error { return a.f.Close() }
