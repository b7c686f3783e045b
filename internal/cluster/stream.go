package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"crowdval/internal/server"
	"crowdval/internal/wal"
)

// The subscribe stream reuses the WAL byte format as its wire format: a log
// header (whose base LSN aligns the implicit record numbering with the
// leader's log) followed by CRC-framed records. A follower that is behind
// the leader's log floor — or connecting fresh — first receives a RecCreate
// record carrying a full snapshot at the header's base+1; after that, every
// record is a live mutation with the leader's own LSN. The follower parses
// the stream with wal.NewReader and applies records through the same
// log-before-apply path recovery uses, so leader and follower states agree
// byte for byte at equal LSNs. A handoff transfer sends the same reset
// alone, and the receiver applies it the same way.

// streamPollInterval is how long the leader waits before re-checking a
// session's log for new records when a subscribed follower is fully caught
// up.
const streamPollInterval = 20 * time.Millisecond

// streamFile adapts an HTTP response to wal.File for the out-bound
// Appender: Sync flushes buffered frames down the wire so a follower sees a
// record as soon as it is streamed, not when the response buffer fills.
type streamFile struct {
	w  io.Writer
	fl http.Flusher
}

func (s streamFile) Write(p []byte) (int, error) { return s.w.Write(p) }

func (s streamFile) Sync() error {
	if s.fl != nil {
		s.fl.Flush()
	}
	return nil
}

// streamPolicy flushes a stream to its receiver after every record:
// streamFile.Sync is a client-side flush, not an fsync.
var streamPolicy = wal.SyncPolicy{Mode: wal.SyncAlways}

// startStream writes the reset that starts a session stream on out: a WAL
// header based at lsn-1 and one create record carrying the snapshot at lsn.
// It is the start of a subscription that cannot continue from the
// follower's position and the whole body of a transfer. The returned
// appender continues the stream at lsn+1.
func startStream(out wal.File, snap []byte, lsn uint64) (*wal.Appender, error) {
	app, err := wal.NewAppender(out, lsn-1, streamPolicy)
	if err != nil {
		return nil, err
	}
	if _, err := app.Append(wal.Record{Type: wal.RecCreate, Snapshot: snap}); err != nil {
		return nil, err
	}
	return app, nil
}

// applyRecord applies one record of a session stream to the local copy: a
// create record resets the copy to the carried snapshot at lsn
// (Manager.ReplicaReset), any other record applies on top of it
// (Manager.ReplicaApply). Follower subscriptions and inbound transfers both
// apply through it.
func applyRecord(ctx context.Context, m *server.Manager, name string, rec wal.Record, lsn uint64) error {
	if rec.Type == wal.RecCreate {
		return m.ReplicaReset(ctx, name, rec.Snapshot, lsn)
	}
	return m.ReplicaApply(ctx, name, lsn, rec)
}

// streamSession streams session name's WAL to one subscriber, starting
// after LSN from (0 = from scratch), until ctx ends, the subscriber goes
// away (write error), or the session's log disappears (deleted or handed
// off). It returns nil only on ctx cancellation.
func streamSession(ctx context.Context, m *server.Manager, name string, from uint64, w io.Writer, fl http.Flusher) error {
	path, err := m.SessionWALPath(name)
	if err != nil {
		return err
	}
	cur, err := m.SessionLSN(name)
	if err != nil {
		return err
	}

	// Decide whether the follower can continue from its position or needs a
	// snapshot reset: resets cover fresh followers, followers behind the log
	// floor (records truncated by a checkpoint), and followers ahead of the
	// leader (the session was deleted and recreated, restarting LSNs).
	var tl *wal.Tailer
	needReset := from == 0 || from > cur
	if !needReset {
		switch t, err := wal.OpenTailer(path); {
		case err != nil:
			needReset = true // header not settled yet, or rotated away
		case t.BaseLSN() > from:
			t.Close()
			needReset = true
		default:
			tl = t
		}
	}

	out := streamFile{w: w, fl: fl}
	var app *wal.Appender
	last := from
	durable := cur // highest LSN known applied+acked; refreshed on demand
	if needReset {
		snap, lsn, err := m.SnapshotWithLSN(ctx, name)
		if err != nil {
			return err
		}
		if lsn == 0 {
			return fmt.Errorf("cluster: session %q has no logged state to stream", name)
		}
		if app, err = startStream(out, snap, lsn); err != nil {
			return err
		}
		last = lsn
	} else {
		if app, err = wal.NewAppender(out, from, streamPolicy); err != nil {
			return err
		}
	}
	defer func() {
		if tl != nil {
			tl.Close()
		}
	}()

	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		if tl == nil {
			switch t, err := wal.OpenTailer(path); {
			case err == nil:
				tl = t
			case err == io.EOF:
				// Log exists but its header hasn't been flushed yet.
				if err := sleepCtx(ctx, streamPollInterval); err != nil {
					return nil
				}
				continue
			default:
				return err // deleted, handed off, or corrupt
			}
		}
		rec, lsn, err := tl.Next()
		switch {
		case err == nil:
			if lsn <= last {
				continue // already covered by the snapshot or a prior read
			}
			if lsn != last+1 {
				return fmt.Errorf("cluster: session %q log jumped from LSN %d to %d", name, last, lsn)
			}
			// Never ship bytes past the session's applied LSN. A failed
			// fsync can leave a fully-framed record in the file that the
			// leader neither applied nor acknowledged — healing rebases it
			// away, and replicating it would fork the follower from acked
			// history. Back off and reopen so a rebase replaces what would
			// have been sent. (durable is monotonic, so the cached value
			// only ever under-admits and a refresh is needed at most once
			// per record that outruns it.)
			if lsn > durable {
				d, derr := m.SessionLSN(name)
				if derr != nil {
					return derr
				}
				durable = d
				if lsn > durable {
					tl.Close()
					tl = nil
					if err := sleepCtx(ctx, streamPollInterval); err != nil {
						return nil
					}
					continue
				}
			}
			if _, err := app.Append(rec); err != nil {
				return err // subscriber went away
			}
			last = lsn
		case err == io.EOF:
			if err := sleepCtx(ctx, streamPollInterval); err != nil {
				return nil
			}
		case errors.Is(err, wal.ErrLogRotated):
			// A checkpoint replaced the log file. The old inode was fully
			// drained, so reopening and skipping <= last continues gap-free.
			tl.Close()
			tl = nil
		default:
			return err
		}
	}
}

// sleepCtx sleeps for d or until ctx is done, returning ctx's error in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
