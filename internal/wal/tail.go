package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrLogRotated reports that the file a Tailer follows was replaced at its
// path (checkpoint truncation rewrites the log through a tmp-file rename).
// The records remaining in the old file have been drained; the caller decides
// with the new log's BaseLSN whether reopening continues the stream or a
// fresh snapshot is needed.
var ErrLogRotated = errors.New("wal: log file rotated")

// A Tailer incrementally reads a log file that another part of the process is
// still appending to — the read half of follower replication: the leader's
// subscribe endpoint tails its own session log and streams the records out.
//
// Unlike Reader, which consumes a closed log and treats a short tail as
// corruption, a Tailer treats "the bytes aren't all here yet" as a normal
// state: Next returns io.EOF whenever the next record is absent or only
// partially written, and the caller polls again after the appender makes
// progress. All reads go through ReadAt against the open file descriptor, so
// the Tailer never disturbs or depends on the appender's file offset, and a
// record is only parsed once the file is long enough to contain all of it —
// at which point its bytes are final, because the appender writes strictly
// sequentially. A genuine framing violation inside that settled region
// (implausible length, checksum mismatch, undecodable payload) is therefore
// real corruption and reported through ErrBadWAL.
//
// A Tailer is not safe for concurrent use; each subscription runs its own.
type Tailer struct {
	f    *os.File
	fi   os.FileInfo // identity of the opened file, for rotation detection
	path string
	base uint64
	lsn  uint64 // LSN of the last returned record
	off  int64  // offset of the next unread frame
}

// OpenTailer opens the log at path for tailing. The appender syncs the header
// before acknowledging anything, but a Tailer can race the very creation of
// the file: when fewer than the header's bytes exist yet, OpenTailer returns
// io.EOF and the caller retries. A present-but-malformed header is reported
// through ErrBadWAL.
func OpenTailer(path string) (*Tailer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var hdr [headerSize]byte
	n, err := f.ReadAt(hdr[:], 0)
	if n < headerSize {
		f.Close()
		if err == nil || err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wal: reading log header: %w", err)
	}
	base, err := parseHeader(hdr[:])
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Tailer{
		f:    f,
		fi:   fi,
		path: path,
		base: base,
		lsn:  base,
		off:  headerSize,
	}, nil
}

// BaseLSN returns the LSN the tailed log was truncated to: its records are
// numbered BaseLSN+1 onward.
func (t *Tailer) BaseLSN() uint64 { return t.base }

// LSN returns the LSN of the last record Next returned (BaseLSN before the
// first).
func (t *Tailer) LSN() uint64 { return t.lsn }

// Next returns the next record once it is fully on disk.
//
//   - io.EOF: the next record is absent or still partially written — poll
//     again after the appender makes progress.
//   - ErrLogRotated: the file at the path was replaced and the old file is
//     fully drained — reopen to continue.
//   - ErrBadWAL (wrapped): real corruption in the settled region.
func (t *Tailer) Next() (Record, uint64, error) {
	fi, err := t.f.Stat()
	if err != nil {
		return Record{}, 0, fmt.Errorf("wal: statting tailed log: %w", err)
	}
	size := fi.Size()
	if size < t.off+frameOverhead {
		return t.pending()
	}
	var frame [frameOverhead]byte
	if _, err := t.f.ReadAt(frame[:], t.off); err != nil {
		return Record{}, 0, fmt.Errorf("wal: reading record frame: %w", err)
	}
	n, err := payloadLen(frame[:])
	if err != nil {
		return Record{}, 0, fmt.Errorf("%w at offset %d", err, t.off)
	}
	if size < t.off+frameOverhead+n {
		return t.pending()
	}
	// The size check above bounds this allocation by bytes actually on disk,
	// so a hostile length prefix cannot request more than the file holds.
	payload := make([]byte, n)
	if _, err := t.f.ReadAt(payload, t.off+frameOverhead); err != nil {
		return Record{}, 0, fmt.Errorf("wal: reading record payload: %w", err)
	}
	rec, err := decodeFrame(frame[:], payload)
	if err != nil {
		return Record{}, 0, fmt.Errorf("%w at offset %d", err, t.off)
	}
	t.off += frameOverhead + n
	t.lsn++
	return rec, t.lsn, nil
}

// pending classifies a not-enough-bytes condition: io.EOF while the path
// still names the opened file (the appender just hasn't written the record
// yet), ErrLogRotated once it does not (checkpoint truncation swapped in a
// rewritten log, so the opened file will never grow again).
func (t *Tailer) pending() (Record, uint64, error) {
	cur, err := os.Stat(t.path)
	if err != nil || !os.SameFile(cur, t.fi) {
		return Record{}, 0, ErrLogRotated
	}
	return Record{}, 0, io.EOF
}

// Close releases the tailed file.
func (t *Tailer) Close() error { return t.f.Close() }
