package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"crowdval"
	"crowdval/internal/cverr"
	"crowdval/internal/wal"
)

// This file is the manager's side of the cluster fabric (see
// internal/cluster): live session handoff between nodes, adoption of a
// transferred session with LSN continuity, and the replica apply path a
// WAL-tailing follower drives. The manager stays cluster-agnostic — it moves
// sessions and applies records; which node owns what is the cluster layer's
// business.

// Has reports whether a session of that name is managed, without touching
// LRU order — an existence probe, not a use.
func (m *Manager) Has(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.sessions[name]
	return ok
}

// SessionLSN returns the LSN of the last mutation applied to the named
// session: the log position for a session with a WAL, the streamed position
// for a WAL-less replica, zero for a plain standalone session. Appends run
// under the entry's write lock, so the read lock makes the sample race-free.
func (m *Manager) SessionLSN(name string) (uint64, error) {
	e, err := m.lookup(name)
	if err != nil {
		return 0, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.deleted {
		return 0, fmt.Errorf("%w: %q", cverr.ErrSessionNotFound, name)
	}
	if e.log != nil {
		return e.log.app.LSN(), nil
	}
	return e.replicaLSN, nil
}

// SessionWALPath returns the path of the session's live log file — what a
// follower subscription tails. It fails when the manager runs without a WAL
// or does not manage the session.
func (m *Manager) SessionWALPath(name string) (string, error) {
	if m.walDir == "" {
		return "", fmt.Errorf("server: session %q has no WAL to tail (manager runs without one)", name)
	}
	if !m.Has(name) {
		return "", fmt.Errorf("%w: %q", cverr.ErrSessionNotFound, name)
	}
	return m.walPath(name), nil
}

// SnapshotWithLSN returns the session's encoded snapshot together with the
// LSN of the last mutation it covers, taken atomically under the session's
// write lock — the reset frame a follower subscription starts from. The log
// is flushed (not fsynced) first, so a tailer opened right after can read
// every record up to the returned LSN.
func (m *Manager) SnapshotWithLSN(ctx context.Context, name string) ([]byte, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	e, err := m.lookup(name)
	if err != nil {
		return nil, 0, err
	}
	var snap []byte
	var lsn uint64
	err = m.exclusive(e, name, func(s *crowdval.Session) error {
		var serr error
		snap, serr = s.Snapshot()
		if serr != nil {
			return serr
		}
		if e.log != nil {
			if e.log.state != walHealthy {
				return e.log.unavailable(name)
			}
			if ferr := e.log.app.Flush(); ferr != nil {
				m.degradeWAL(e.log, ferr)
				return fmt.Errorf("server: flushing WAL of session %q: %w", name, ferr)
			}
			lsn = e.log.app.LSN()
		} else {
			lsn = e.replicaLSN
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return snap, lsn, nil
}

// HandoffSession migrates the named session to another node: under the
// session's write lock — so no mutation can slip in behind the transferred
// state — the WAL is fsynced, the final snapshot taken, and send delivers
// snapshot + LSN to the target. Only after send returns nil is the local copy
// retired (session, WAL, checkpoints, park file); on any failure the session
// stays exactly where it was and keeps serving. The crash window between the
// target's ack and the local retirement can leave both nodes with a copy —
// the router resolves that by ownership, never by merging.
func (m *Manager) HandoffSession(ctx context.Context, name string, send func(snapshot []byte, lsn uint64) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e, err := m.lookup(name)
	if err != nil {
		return err
	}
	e.mu.Lock()
	if e.deleted {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", cverr.ErrSessionNotFound, name)
	}
	if e.sess == nil {
		if err := m.unpark(e); err != nil {
			e.mu.Unlock()
			return err
		}
	}
	fail := func(err error) error {
		victims := m.settle(e)
		e.mu.Unlock()
		m.parkAll(victims)
		return err
	}
	var lsn uint64
	if e.log != nil {
		if e.log.state != walHealthy {
			return fail(fmt.Errorf("server: not handing off session %q: %w", name, e.log.unavailable(name)))
		}
		// Acknowledged mutations must be durable locally before the transfer:
		// if the send dies halfway, this node is still the owner of record and
		// must be able to crash-recover everything it acked.
		if err := e.log.app.Sync(); err != nil {
			m.degradeWAL(e.log, err)
			return fail(fmt.Errorf("server: syncing WAL of session %q for handoff: %w", name, err))
		}
		m.foldWALMetrics(e.log)
		lsn = e.log.app.LSN()
	} else {
		lsn = e.replicaLSN
	}
	snap, err := e.sess.Snapshot()
	if err != nil {
		return fail(fmt.Errorf("server: snapshotting session %q for handoff: %w", name, err))
	}
	if err := send(snap, lsn); err != nil {
		return fail(fmt.Errorf("server: handing off session %q: %w", name, err))
	}

	// The target owns the session now: retire the local copy.
	m.retire(e)
	return nil
}

// CreateFromHandoff installs a session transferred from another node: the
// snapshot resumes, and — when this manager has a WAL — its durability state
// is adopted at the donor's LSN (a checkpoint carrying the snapshot plus an
// empty log based there), so the session's mutation numbering continues
// seamlessly across nodes and recovery works the same as for a home-grown
// session.
func (m *Manager) CreateFromHandoff(ctx context.Context, name string, snapshot []byte, lsn uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ValidateSessionName(name); err != nil {
		return err
	}
	e := &entry{name: name}
	e.mu.Lock()
	m.mu.Lock()
	if _, exists := m.sessions[name]; exists {
		m.mu.Unlock()
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", cverr.ErrSessionExists, name)
	}
	m.sessions[name] = e
	e.elem = m.lru.PushFront(e)
	m.mu.Unlock()

	sess, err := crowdval.ResumeSession(snapshot)
	var w *sessionWAL
	if err == nil && m.walDir != "" {
		w, err = m.adoptWAL(name, snapshot, lsn)
	}
	if err != nil {
		e.deleted = true
		e.mu.Unlock()
		m.mu.Lock()
		delete(m.sessions, name)
		m.lru.Remove(e.elem)
		m.mu.Unlock()
		return err
	}
	e.sess = sess
	e.log = w
	e.replicaLSN = lsn
	victims := m.settle(e)
	e.mu.Unlock()
	m.parkAll(victims)
	return nil
}

// adoptWAL starts the durability state of a session adopted at lsn: the
// transferred snapshot becomes the newest checkpoint covering lsn, and a
// fresh empty log is based there — exactly the state a home-grown session is
// in right after a checkpoint rotation, so every later code path (appends,
// rotation, recovery) applies unchanged.
func (m *Manager) adoptWAL(name string, snapshot []byte, lsn uint64) (*sessionWAL, error) {
	ckpt := m.ckptPath(name)
	os.Remove(m.ckptPrevPath(name))
	tmp := ckpt + ".tmp"
	if err := m.writeFileSynced(tmp, func(f io.Writer) error {
		return wal.WriteCheckpoint(f, lsn, snapshot)
	}); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("server: writing adopted checkpoint of session %q: %w", name, err)
	}
	if err := os.Rename(tmp, ckpt); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("server: installing adopted checkpoint of session %q: %w", name, err)
	}
	path := m.walPath(name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		os.Remove(ckpt)
		return nil, fmt.Errorf("server: creating adopted WAL of session %q: %w", name, err)
	}
	app, err := wal.NewAppender(m.wrapWAL(name, f), lsn, m.walSync)
	if err != nil {
		f.Close()
		os.Remove(path)
		os.Remove(ckpt)
		return nil, fmt.Errorf("server: creating adopted WAL of session %q: %w", name, err)
	}
	w := &sessionWAL{f: f, app: app, lastCkptLSN: lsn}
	m.foldWALMetrics(w)
	return w, nil
}

// ReplicaReset (re)starts following a session: any existing local copy is
// discarded and the leader's snapshot is installed at its LSN. It is the
// apply side of a subscription's reset frame — after it, ReplicaApply
// consumes the stream from lsn+1.
func (m *Manager) ReplicaReset(ctx context.Context, name string, snapshot []byte, lsn uint64) error {
	if err := m.Delete(name); err != nil && !errors.Is(err, cverr.ErrSessionNotFound) {
		return err
	}
	return m.CreateFromHandoff(ctx, name, snapshot, lsn)
}

// ReplicaApply applies one streamed log record to a followed session through
// the same log-before-apply discipline the leader used, enforcing gap-free
// LSN continuity: a duplicate (lsn at or below the replica's position, the
// signature of a reconnect) is skipped, a gap is rejected with ErrBadWAL so
// the follower falls back to a fresh reset. Per-record application errors are
// tolerated exactly like crash recovery tolerates them — the library rejects
// invalid mutations without mutating, so a record that failed on the leader
// re-fails here deterministically.
func (m *Manager) ReplicaApply(ctx context.Context, name string, lsn uint64, rec wal.Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if rec.Type == wal.RecCreate {
		return fmt.Errorf("server: replica %q: create record in the middle of a stream: %w", name, cverr.ErrBadWAL)
	}
	e, err := m.lookup(name)
	if err != nil {
		return err
	}
	return m.exclusive(e, name, func(s *crowdval.Session) error {
		cur := e.replicaLSN
		if e.log != nil {
			cur = e.log.app.LSN()
		}
		if lsn <= cur {
			return nil
		}
		if lsn != cur+1 {
			return fmt.Errorf("server: replica %q: record LSN %d leaves a gap after %d: %w", name, lsn, cur, cverr.ErrBadWAL)
		}
		if err := m.logMutation(e, rec); err != nil {
			return err
		}
		applyCtx := ctx
		if e.log != nil {
			applyCtx = context.WithoutCancel(ctx)
		}
		aerr := replayRecord(applyCtx, s, rec)
		e.replicaLSN = lsn
		m.maybeCheckpoint(e)
		if aerr != nil && (errors.Is(aerr, context.Canceled) || errors.Is(aerr, context.DeadlineExceeded)) {
			return aerr
		}
		return nil
	})
}
