package resultstore

import (
	"iotscope/internal/correlate"
	"iotscope/internal/wal"
)

// CheckpointLog is the one writer of a live checkpoint file: each Commit
// makes the incremental correlator's current state durable, by appending
// one delta frame when it can and by rewriting the file whole when it must.
//
// The file is rewritten (wal.WriteAtomic, as WriteCheckpoint) on the
// log's first commit — whatever is at the path, a v1 file included, is
// then replaced by a base this log knows — whenever the frames would
// outgrow the base, after a failed append, and when the correlator cannot
// express the change as one frame. Compacting at a constant ratio keeps the
// rewrite cost amortized O(1) per appended byte and a restore within twice
// the base. A CheckpointLog is not safe for concurrent use.
type CheckpointLog struct {
	fsys wal.FS
	path string
	// tail appends to the file the last compaction wrote; nil means the next
	// commit must compact.
	tail     *wal.Appender
	base     int64
	appended int64
}

// NewCheckpointLog returns the writer for the checkpoint at path. fsys may
// be nil for the real file system.
func NewCheckpointLog(path string, fsys wal.FS) *CheckpointLog {
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
	if d, ok := inc.Delta(); ok && l.tail != nil {
		frame := encodeFrame(d)
		if l.appended+int64(len(frame)) <= l.base {
			if err := l.tail.Append(frame); err == nil {
				l.appended += int64(len(frame))
				c.Bytes = int64(len(frame))
				return c, nil
			}
			// The torn frame it may have left is dropped by readers; the
			// rewrite below replaces the file.
			c.AppendFailed = true
		}
	}
	cp := inc.Export()
	data := encode(KindCheckpoint, cp.Result, cp)
	l.Close()
	if err := wal.WriteAtomic(l.fsys, l.path, data); err != nil {
		return c, err
	}
	c.Bytes, c.Compacted = int64(len(data)), true
	l.base, l.appended = int64(len(data)), 0
	// Failing to reopen costs nothing durable: the next commit compacts.
	if tail, err := wal.OpenAppend(l.fsys, l.path, nil); err == nil {
		l.tail = tail
	}
	return c, nil
}

// Close releases the append handle. The log stays usable: the next Commit
// compacts.
func (l *CheckpointLog) Close() {
	if l.tail != nil {
		l.tail.Close() // every frame was synced when appended
		l.tail = nil
	}
}
