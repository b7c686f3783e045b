package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"crowdval"
	"crowdval/internal/cverr"
	"crowdval/internal/wal"
)

// This file is the session health state machine and its self-healing probe
// loop. Every session with a WAL is in one of three states:
//
//	healthy   — mutations append and apply normally.
//	degraded  — a durability failure (append, fsync, flush, or the closing
//	            checkpoint of a torn-tail recovery) left the log in an
//	            unknown byte state. Mutations are rejected with ErrDegraded
//	            (HTTP 503 + Retry-After); every read keeps serving from the
//	            in-memory session, which still equals exactly the acked ops
//	            because logMutation rejects before the mutation applies.
//	            The probe loop re-tests the disk and heals the session back
//	            to healthy without a restart.
//	fail-stop — the durable log itself is inconsistent (a record below the
//	            fsynced LSN cannot be read back) or the manager was closed.
//	            Terminal until a restart re-runs recovery; healing from
//	            memory is not sound here because the on-disk history already
//	            contradicts it.
//
// The one-way door between the two failure tiers: degraded means "the disk
// stopped cooperating but memory is authoritative", fail-stop means "the
// disk's own story is broken". Healing is a fresh checkpoint written from
// memory plus an empty log based at the same LSN — exactly the state a
// session is in right after a normal rotation.

// walHealth is the durability state of one session's WAL.
type walHealth int

const (
	walHealthy walHealth = iota
	walDegraded
	walFailStop
)

// DefaultProbeInterval is the probe cadence of HealthLoop when the caller
// passes zero.
const DefaultProbeInterval = time.Second

// unavailable builds the rejection error for a mutation against a non-healthy
// log. Degraded rejections carry cverr.ErrDegraded so the HTTP layer maps
// them to 503 + Retry-After; fail-stop rejections stay plain 500s — retrying
// against this process cannot succeed.
func (w *sessionWAL) unavailable(name string) error {
	if w.state == walFailStop {
		return fmt.Errorf("server: WAL of session %q failed earlier, mutations rejected until restart: %w", name, w.cause)
	}
	return fmt.Errorf("server: session %q is read-only while its WAL heals: %v: %w", name, w.cause, cverr.ErrDegraded)
}

// degradeWAL moves a healthy log to degraded read-only mode, keeping the
// first cause. Degrading an already degraded or fail-stopped log is a no-op.
// The caller holds the entry's write lock.
func (m *Manager) degradeWAL(w *sessionWAL, err error) {
	if w.state != walHealthy {
		return
	}
	w.state = walDegraded
	w.cause = err
	atomic.AddInt64(&m.live.WALDegradedSessions, 1)
	atomic.AddInt64(&m.live.DegradeEvents, 1)
}

// failStopWAL moves a log to the terminal fail-stop state from any state.
// The caller holds the entry's write lock.
func (m *Manager) failStopWAL(w *sessionWAL, err error) {
	if w.state == walFailStop {
		return
	}
	if w.state == walDegraded {
		atomic.AddInt64(&m.live.WALDegradedSessions, -1)
	}
	w.state = walFailStop
	w.cause = err
	atomic.AddInt64(&m.live.WALFailStopSessions, 1)
}

// healWAL moves a degraded log back to healthy after a successful heal. The
// caller holds the entry's write lock.
func (m *Manager) healWAL(w *sessionWAL) {
	if w.state != walDegraded {
		return
	}
	w.state = walHealthy
	w.cause = nil
	atomic.AddInt64(&m.live.WALDegradedSessions, -1)
	atomic.AddInt64(&m.live.WALHeals, 1)
}

// healSession rebuilds a session's durability state from its in-memory
// state: a fresh checkpoint pair covering the current LSN plus an empty log
// based there. This is sound because logMutation rejects a mutation before
// it applies, so the in-memory session always equals exactly the acked
// (logged and applied) ops even after append failures; and it is crash-safe
// because the new checkpoint alone reproduces that state. It is also the
// ENOSPC reclaim: the rewrite drops every record the checkpoint covers, so
// a full disk gets the whole log's space back minus one header.
//
// Unlike checkpoint, healSession never syncs the old appender — the old log
// is in an unknown byte state and is about to be replaced wholesale. The
// caller holds the entry's write lock with a resident session.
func (m *Manager) healSession(name string, sess *crowdval.Session, w *sessionWAL) error {
	snap, err := sess.Snapshot()
	if err != nil {
		return err
	}
	// LSN() may count a phantom record whose append was buffered but whose
	// sync failed; that only skips a number — the new checkpoint's LSN and
	// the new log's base agree, which is all replay numbering needs. With
	// floor == lsn the rewrite reads nothing back: the new log is just a
	// header based at lsn.
	lsn := w.app.LSN()
	return m.writeCheckpoint(name, w, snap, lsn, lsn)
}

// probeWAL append+fsyncs a no-op record to a sidecar probe file in the WAL
// directory — the cheapest end-to-end test of "does this disk accept durable
// writes again". The probe file goes through the same fault-injection seam
// as the session logs, so an armed injector keeps probes failing until it is
// cleared. The file is removed afterwards; recovery also ignores it (no
// .wal suffix).
func (m *Manager) probeWAL() error {
	path := filepath.Join(m.walDir, ".probe")
	f, err := m.injector.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("server: opening WAL probe file: %w", err)
	}
	defer func() {
		f.Close()
		os.Remove(path)
	}()
	app, err := wal.NewAppender(m.injector.WrapFile(path, f), 0, wal.SyncPolicy{Mode: wal.SyncAlways})
	if err != nil {
		return fmt.Errorf("server: probing WAL directory: %w", err)
	}
	if _, err := app.Append(wal.Record{Type: wal.RecNoop}); err != nil {
		return fmt.Errorf("server: probing WAL directory: %w", err)
	}
	return nil
}

// ProbeOnce runs one probe-and-heal pass: if any session is degraded, it
// tests the WAL directory with a durable no-op write and, on success, heals
// every degraded session back to healthy. It returns how many sessions
// healed. With no degraded session it returns immediately — the loop costs
// two atomic loads per tick on a healthy node.
func (m *Manager) ProbeOnce(ctx context.Context) (int, error) {
	if m.walDir == "" || atomic.LoadInt64(&m.live.WALDegradedSessions) == 0 {
		return 0, nil
	}
	if err := m.probeWAL(); err != nil {
		atomic.AddInt64(&m.live.ProbeFailures, 1)
		return 0, err
	}
	m.mu.Lock()
	entries := make([]*entry, 0, len(m.sessions))
	for _, e := range m.sessions {
		entries = append(entries, e)
	}
	m.mu.Unlock()
	healed := 0
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return healed, err
		}
		e.mu.Lock()
		w := e.log
		if w == nil || w.state != walDegraded || e.deleted {
			e.mu.Unlock()
			continue
		}
		if e.sess == nil {
			// A degraded session can be parked like any other; healing needs
			// its state resident.
			if err := m.unpark(e); err != nil {
				e.mu.Unlock()
				continue
			}
		}
		if err := m.healSession(e.name, e.sess, w); err == nil {
			m.healWAL(w)
			healed++
		}
		victims := m.settle(e)
		e.mu.Unlock()
		m.parkAll(victims)
	}
	return healed, nil
}

// HealthLoop runs ProbeOnce every interval (DefaultProbeInterval when zero
// or negative) until the context is canceled — the background self-healing
// companion of a serving manager. Run it in its own goroutine.
func (m *Manager) HealthLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, _ = m.ProbeOnce(ctx)
		}
	}
}

// HealthStatus summarizes the durability health of the managed sessions for
// readiness endpoints.
type HealthStatus struct {
	// State is "healthy", "degraded" (≥1 session read-only, reads serve,
	// probe loop is working on it) or "failstop" (≥1 session needs a
	// restart to serve mutations again).
	State string `json:"state"`
	// DegradedSessions / FailStopSessions are the current gauge values.
	DegradedSessions int64 `json:"degradedSessions"`
	FailStopSessions int64 `json:"failStopSessions"`
}

// Health samples the health gauges. Lock-free: readiness probes never queue
// behind an in-flight fsync.
func (m *Manager) Health() HealthStatus {
	h := HealthStatus{
		State:            "healthy",
		DegradedSessions: atomic.LoadInt64(&m.live.WALDegradedSessions),
		FailStopSessions: atomic.LoadInt64(&m.live.WALFailStopSessions),
	}
	switch {
	case h.FailStopSessions > 0:
		h.State = "failstop"
	case h.DegradedSessions > 0:
		h.State = "degraded"
	}
	return h
}
