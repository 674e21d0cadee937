package resultstore

import (
	"os"

	"iotscope/internal/correlate"
)

// FS is the three operations a store write can lose data at. Production
// code passes nil and gets the os package; crash tests substitute one that
// fails the k-th write, fsync or rename (faultfs.Injector).
type FS interface {
	Write(f *os.File, p []byte) (int, error)
	Sync(f *os.File) error
	Rename(oldpath, newpath string) error
}

type osFS struct{}

func (osFS) Write(f *os.File, p []byte) (int, error) { return f.Write(p) }
func (osFS) Sync(f *os.File) error                   { return f.Sync() }
func (osFS) Rename(oldpath, newpath string) error    { return os.Rename(oldpath, newpath) }

// writeAtomic replaces path with data: written to path+".tmp", synced, then
// renamed, so a reader never observes a half-written store.
func writeAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fsys.Write(f, data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := fsys.Sync(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// CheckpointLog is the one writer of a live checkpoint file: each Commit
// makes the incremental correlator's current state durable, by appending
// one delta frame when it can and by rewriting the file whole when it must.
//
// The file is rewritten (tmp + fsync + rename, as WriteCheckpoint) on the
// log's first commit — whatever is at the path, a v1 file included, is
// then replaced by a base this log knows — whenever the frames would
// outgrow the base, after a failed append, and when the correlator cannot
// express the change as one frame. Compacting at a constant ratio keeps the
// rewrite cost amortized O(1) per appended byte and a restore within twice
// the base. A CheckpointLog is not safe for concurrent use.
type CheckpointLog struct {
	fsys FS
	path string
	// f is open for append on the file the last compaction wrote; nil means
	// the next commit must compact.
	f        *os.File
	base     int64
	appended int64
}

// NewCheckpointLog returns the writer for the checkpoint at path. fsys may
// be nil for the real file system.
func NewCheckpointLog(path string, fsys FS) *CheckpointLog {
	if fsys == nil {
		fsys = osFS{}
	}
	return &CheckpointLog{fsys: fsys, path: path}
}

// Commit describes what one CheckpointLog.Commit did.
type Commit struct {
	Bytes        int64 // bytes written to the checkpoint file
	Compacted    bool  // the file was rewritten whole
	AppendFailed bool  // an append was attempted and failed first
}

// Commit persists inc's current state. On a nil error the state is durable;
// on an error the file still restores to an earlier commit and the next
// Commit rewrites it. inc must be committed through this log alone (see
// Incremental.Delta).
func (l *CheckpointLog) Commit(inc *correlate.Incremental) (Commit, error) {
	var c Commit
	if d, ok := inc.Delta(); ok && l.f != nil {
		frame := encodeFrame(d)
		if l.appended+int64(len(frame)) <= l.base {
			err := l.append(frame)
			if err == nil {
				c.Bytes = int64(len(frame))
				return c, nil
			}
			c.AppendFailed = true
		}
	}
	cp := inc.Export()
	data := encode(KindCheckpoint, cp.Result, cp)
	l.Close()
	if err := writeAtomic(l.fsys, l.path, data); err != nil {
		return c, err
	}
	c.Bytes, c.Compacted = int64(len(data)), true
	l.base, l.appended = int64(len(data)), 0
	// Failing to reopen costs nothing durable: the next commit compacts.
	if f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0); err == nil {
		l.f = f
	}
	return c, nil
}

// append writes one frame and makes it durable. Any failure may leave a
// torn frame at the tail, which readers drop; the log stops appending.
func (l *CheckpointLog) append(frame []byte) error {
	_, err := l.fsys.Write(l.f, frame)
	if err == nil {
		err = l.fsys.Sync(l.f)
	}
	if err != nil {
		l.Close()
		return err
	}
	l.appended += int64(len(frame))
	return nil
}

// Close releases the append handle. The log stays usable: the next Commit
// compacts.
func (l *CheckpointLog) Close() {
	if l.f != nil {
		l.f.Close() // every frame was synced when appended
		l.f = nil
	}
}
