package server

import (
	"context"
	"errors"
	"fmt"
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
// session: its log position, zero for a session without a WAL. Appends run
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
	return e.lsn(), nil
}

// lsn is the LSN of the last mutation applied to the entry's session: its
// log's position, zero without a WAL. The caller holds e.mu.
func (e *entry) lsn() uint64 {
	if e.log != nil {
		return e.log.app.LSN()
	}
	return 0
}

// errNoWAL refuses replication on a manager without a write-ahead log: a
// replica's position is its log's LSN, so a follower, a transfer receiver
// and a subscription's leader all need one.
var errNoWAL = errors.New("server: replication needs a write-ahead log")

// SessionWALPath returns the path of the session's live log file — what a
// follower subscription tails. It fails when the manager runs without a WAL
// or does not manage the session.
func (m *Manager) SessionWALPath(name string) (string, error) {
	if m.walDir == "" {
		return "", fmt.Errorf("server: session %q has no WAL to tail: %w", name, errNoWAL)
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
		}
		lsn = e.lsn()
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
	}
	snap, err := e.sess.Snapshot()
	if err != nil {
		return fail(fmt.Errorf("server: snapshotting session %q for handoff: %w", name, err))
	}
	if err := send(snap, e.lsn()); err != nil {
		return fail(fmt.Errorf("server: handing off session %q: %w", name, err))
	}

	// The target owns the session now: retire the local copy.
	m.retire(e)
	return nil
}

// ReplicaReset installs a session at another node's LSN — the apply side of
// a subscription's reset frame and of an inbound handoff. Any existing local
// copy is discarded and the snapshot resumes under the name; its durability
// state is adopted at lsn (see adoptLog), so the session's mutation
// numbering continues across nodes and recovery works as for a home-grown
// session. After it, ReplicaApply consumes the stream from lsn+1. A manager
// without a WAL refuses it with errNoWAL.
func (m *Manager) ReplicaReset(ctx context.Context, name string, snapshot []byte, lsn uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.walDir == "" {
		return fmt.Errorf("server: replica %q: %w", name, errNoWAL)
	}
	if err := m.Delete(name); err != nil && !errors.Is(err, cverr.ErrSessionNotFound) {
		return err
	}
	return m.install(name, func() (*crowdval.Session, *sessionWAL, error) {
		sess, err := crowdval.ResumeSession(snapshot)
		if err != nil {
			return nil, nil, err
		}
		w, err := m.adoptLog(name, snapshot, lsn)
		return sess, w, err
	})
}

// adoptLog starts the durability state of a session adopted at lsn: the
// snapshot becomes the newest checkpoint covering lsn and an empty log is
// based there — the state a home-grown session is in right after a
// checkpoint rotation, so appends, rotation and recovery apply unchanged. A
// checkpoint pair left by a deleted same-name predecessor is removed first:
// the writer would otherwise demote it into the fallback generation, where
// recovery could resume it. On failure every file of the name is removed.
func (m *Manager) adoptLog(name string, snapshot []byte, lsn uint64) (*sessionWAL, error) {
	os.Remove(m.ckptPath(name))
	os.Remove(m.ckptPrevPath(name))
	w := &sessionWAL{}
	if err := m.writeCheckpoint(name, w, snapshot, lsn, lsn); err != nil {
		m.removeWALFiles(name)
		return nil, fmt.Errorf("server: adopting session %q at LSN %d: %w", name, lsn, err)
	}
	return w, nil
}

// ReplicaApply applies one streamed log record to a followed session through
// the same log-before-apply step the leader used (logApply), enforcing gap-free
// LSN continuity: a duplicate (lsn at or below the replica's position, the
// signature of a reconnect) is skipped, a gap is rejected with ErrBadWAL so
// the follower falls back to a fresh reset. Per-record application errors are
// tolerated exactly like crash recovery tolerates them — the library rejects
// invalid mutations without mutating, so a record that failed on the leader
// re-fails here deterministically. A manager without a WAL refuses it with
// errNoWAL.
func (m *Manager) ReplicaApply(ctx context.Context, name string, lsn uint64, rec wal.Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.walDir == "" {
		return fmt.Errorf("server: replica %q: %w", name, errNoWAL)
	}
	if rec.Type == wal.RecCreate {
		return fmt.Errorf("server: replica %q: create record in the middle of a stream: %w", name, cverr.ErrBadWAL)
	}
	e, err := m.lookup(name)
	if err != nil {
		return err
	}
	return m.exclusive(e, name, func(*crowdval.Session) error {
		cur := e.lsn()
		if lsn <= cur {
			return nil
		}
		if lsn != cur+1 {
			return fmt.Errorf("server: replica %q: record LSN %d leaves a gap after %d: %w", name, lsn, cur, cverr.ErrBadWAL)
		}
		_, applied, err := m.logApply(ctx, e, rec)
		m.maybeCheckpoint(e)
		if !applied || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	})
}
