package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"

	"crowdval"
	"crowdval/internal/cverr"
	"crowdval/internal/wal"
)

// This file is the durability glue between the session manager and the
// internal/wal package: per-session log state, the log-before-apply mutation
// discipline, checkpoint rotation with a two-generation fallback, and crash
// recovery.
//
// On-disk layout per session (inside ManagerConfig.WALDir):
//
//	<name>.wal        append-only mutation log (see package wal)
//	<name>.ckpt       newest checkpoint: snapshot + LSN it covers
//	<name>.ckpt.prev  previous checkpoint generation, the fallback when the
//	                  newest one is damaged
//	*.tmp             in-flight atomic writes; debris after a crash, removed
//	                  by recovery
//
// A parked session (inside ManagerConfig.ParkDir, with or without a WAL):
//
//	<name>.park       the session's snapshot in the checkpoint frame, at its
//	                  applied LSN; written without an fsync, read back through
//	                  the same parser as the checkpoints, and removed on resume
//
// Rotation invariant: the log is only ever truncated down to the LSN of the
// *older* surviving checkpoint, so a corrupt newest checkpoint can always
// fall back to <name>.ckpt.prev plus a longer replay — no single torn write
// can lose acknowledged state.

// sessionWAL is one session's write-ahead log state. It is guarded by the
// owning entry's mu, like the session itself: every append runs inside the
// session's write critical section, which keeps log order identical to apply
// order.
type sessionWAL struct {
	f   *os.File
	app *wal.Appender
	// state is the log's health (healthy → degraded → fail-stop, see
	// health.go); cause records the first failure that left healthy. A log
	// whose write failed partway is in an unknown byte state, so the session
	// degrades to read-only until the probe loop heals it — or fails stop
	// when the durable history itself is inconsistent.
	state walHealth
	cause error
	// sinceCkpt counts records logged since the last checkpoint; lastCkptLSN
	// is the LSN the newest checkpoint covers (the truncation floor for the
	// *next* rotation is this value, i.e. the generation being demoted).
	sinceCkpt   int
	lastCkptLSN uint64
	// seen* are the appender metrics already folded into the manager's
	// live counters.
	seenBytes, seenRecords, seenSyncs int64
}

func (w *sessionWAL) close() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

func (m *Manager) walPath(name string) string {
	return filepath.Join(m.walDir, name+".wal")
}

func (m *Manager) ckptPath(name string) string {
	return filepath.Join(m.walDir, name+".ckpt")
}

func (m *Manager) ckptPrevPath(name string) string {
	return filepath.Join(m.walDir, name+".ckpt.prev")
}

// wrapWAL applies the fault-injection seams to a freshly opened log file: the
// crash-test byte-budget hook when installed, else the configured injector
// (keyed on the log's path, so rules match on session name or ".wal"); in
// production both are nil and it is the identity.
func (m *Manager) wrapWAL(name string, f *os.File) wal.File {
	if m.walOpen != nil {
		return m.walOpen(name, f)
	}
	return m.injector.WrapFile(m.walPath(name), f)
}

// foldWALMetrics folds the appender's cumulative metrics into the manager's
// live counters as deltas against the last fold.
func (m *Manager) foldWALMetrics(w *sessionWAL) {
	b, r, s := w.app.Metrics()
	atomic.AddInt64(&m.live.WALBytes, b-w.seenBytes)
	atomic.AddInt64(&m.live.WALRecords, r-w.seenRecords)
	atomic.AddInt64(&m.live.WALSyncs, s-w.seenSyncs)
	w.seenBytes, w.seenRecords, w.seenSyncs = b, r, s
}

// createWAL starts the log of a freshly created session: a new file whose
// first record carries the session's snapshot, synced regardless of policy —
// session creation is durable before it is acknowledged, whatever the
// per-mutation trade-off. A failure fails the creation. Without a WAL it
// returns a nil log.
func (m *Manager) createWAL(name string, sess *crowdval.Session) (*sessionWAL, error) {
	if m.walDir == "" {
		return nil, nil
	}
	snap, err := sess.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("server: snapshotting session %q for its WAL: %w", name, err)
	}
	path := m.walPath(name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: creating WAL for session %q: %w", name, err)
	}
	w := &sessionWAL{f: f}
	fail := func(err error) (*sessionWAL, error) {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("server: creating WAL for session %q: %w", name, err)
	}
	app, err := wal.NewAppender(m.wrapWAL(name, f), 0, m.walSync)
	if err != nil {
		return fail(err)
	}
	w.app = app
	if _, err := app.Append(wal.Record{Type: wal.RecCreate, Snapshot: snap}); err != nil {
		return fail(err)
	}
	if err := app.Sync(); err != nil {
		return fail(err)
	}
	m.foldWALMetrics(w)
	// A stale checkpoint pair from a deleted predecessor of the same name
	// must not shadow the fresh log.
	os.Remove(m.ckptPath(name))
	os.Remove(m.ckptPrevPath(name))
	return w, nil
}

// removeWALFiles deletes every durability file of a session (Delete path).
func (m *Manager) removeWALFiles(name string) {
	if m.walDir == "" {
		return
	}
	os.Remove(m.walPath(name))
	os.Remove(m.ckptPath(name))
	os.Remove(m.ckptPrevPath(name))
	os.Remove(m.walPath(name) + ".tmp")
	os.Remove(m.ckptPath(name) + ".tmp")
}

// logMutation appends one mutation record to the entry's log, before the
// mutation is applied. A nil log (WAL disabled) is a no-op. On failure the
// caller must not apply the mutation, and the log degrades to read-only —
// with one exception: a full disk (ENOSPC) first tries a checkpoint-and-
// truncate to reclaim log space and retries the append once, so a disk
// filled by the log itself heals without ever degrading. The caller holds
// the entry's write lock.
func (m *Manager) logMutation(e *entry, rec wal.Record) error {
	w := e.log
	if w == nil {
		return nil
	}
	if w.state != walHealthy {
		return w.unavailable(e.name)
	}
	_, err := w.app.Append(rec)
	m.foldWALMetrics(w)
	if err != nil && errors.Is(err, syscall.ENOSPC) && e.sess != nil {
		// The checkpoint-and-truncate drops every record the new checkpoint
		// covers (and the failed append's torn bytes with them), which is
		// the biggest space reclaim this session can make. The probe loop
		// handles the case where even that does not fit.
		if herr := m.healSession(e.name, e.sess, w); herr == nil {
			atomic.AddInt64(&m.live.ENOSPCReclaims, 1)
			_, err = w.app.Append(rec)
			m.foldWALMetrics(w)
		}
	}
	if err != nil {
		m.degradeWAL(w, err)
		return fmt.Errorf("server: logging mutation for session %q: %w: %w", e.name, err, cverr.ErrDegraded)
	}
	w.sinceCkpt++
	if m.walFlushEach {
		// Make the record visible to tailing followers right away. A failed
		// flush leaves the file in an unknown byte state, the same situation
		// as a failed append: degrade.
		if err := w.app.Flush(); err != nil {
			m.degradeWAL(w, err)
			return fmt.Errorf("server: flushing WAL of session %q: %w: %w", e.name, err, cverr.ErrDegraded)
		}
	}
	return nil
}

// maybeCheckpoint writes a snapshot checkpoint and truncates the log when the
// configured record interval has elapsed. Failures are counted, not retried
// per-mutation (the next full interval tries again), and never truncate. The
// caller holds the entry's write lock with a resident session.
func (m *Manager) maybeCheckpoint(e *entry) {
	w := e.log
	if w == nil || w.state != walHealthy || m.ckptEvery <= 0 || w.sinceCkpt < m.ckptEvery || e.sess == nil {
		return
	}
	if err := m.checkpoint(e.name, e.sess, w); err != nil {
		atomic.AddInt64(&m.live.CheckpointFailures, 1)
		w.sinceCkpt = 0
		return
	}
	atomic.AddInt64(&m.live.Checkpoints, 1)
}

// checkpoint writes the session's snapshot as the new newest checkpoint,
// demotes the previous newest to the fallback generation, and truncates the
// log down to the demoted generation's LSN. The caller holds the session's
// write lock.
func (m *Manager) checkpoint(name string, sess *crowdval.Session, w *sessionWAL) error {
	snap, err := sess.Snapshot()
	if err != nil {
		return err
	}
	// Every logged record must be durable before any truncation decision:
	// the checkpoint claims to cover them.
	if err := w.app.Sync(); err != nil {
		m.degradeWAL(w, err)
		return err
	}
	m.foldWALMetrics(w)
	return m.writeCheckpoint(name, w, snap, w.lastCkptLSN, w.app.LSN())
}

// writeCheckpoint is the one checkpoint writer — rotation, heal and adoption
// all go through it. It writes snap as the checkpoint covering lsn to
// <name>.ckpt.tmp, demotes the newest generation to <name>.ckpt.prev, renames
// the new one into place, and rewrites the log to its records in (floor, lsn]
// (see rewriteLog). A failure before the log rewrite leaves the log
// untouched.
func (m *Manager) writeCheckpoint(name string, w *sessionWAL, snap []byte, floor, lsn uint64) error {
	ckpt := m.ckptPath(name)
	tmp := ckpt + ".tmp"
	if err := m.writeFileSynced(tmp, func(f io.Writer) error {
		return wal.WriteCheckpoint(f, lsn, snap)
	}); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := m.injector.Rename(ckpt, m.ckptPrevPath(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		os.Remove(tmp)
		return err
	}
	if err := m.injector.Rename(tmp, ckpt); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := m.rewriteLog(name, w, floor, lsn); err != nil {
		return err
	}
	w.lastCkptLSN = lsn
	w.sinceCkpt = 0
	return nil
}

// rewriteLog replaces the session's log with a canonical re-encode of its
// records in (floor, lastLSN], rebased to baseLSN=floor, and swaps the live
// appender onto the new file at lastLSN. Any torn tail bytes beyond lastLSN
// (from a failed append or a crash) vanish in the rewrite; a record at or
// below lastLSN that cannot be read back fails the session stop instead —
// see failStop below. On failure after the swap point the log degrades.
func (m *Manager) rewriteLog(name string, w *sessionWAL, floor, lastLSN uint64) error {
	path := m.walPath(name)
	tmp := path + ".tmp"
	nf, err := m.injector.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// The rewrite is plumbing, not new mutations: no crash-test byte budget
	// (the injector seam still applies — a disk that fails mid-rotation must
	// be injectable), no per-record fsync, one sync before the atomic swap.
	app, err := wal.NewAppender(m.injector.WrapFile(tmp, nf), floor, wal.SyncPolicy{Mode: wal.SyncOff})
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	fail := func(err error) error {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	// Every record through lastLSN was fsynced before this rotation started,
	// so the rewrite must be able to read all of them back. Failing to —
	// unopenable file, bad header, a corrupt or missing record at or below
	// lastLSN — is corruption of the live log, not a torn tail: installing a
	// shortened log here would leave an implicit-LSN gap that a later
	// fallback recovery silently skips over. The session fails stop instead.
	// Only bytes strictly beyond lastLSN are a droppable torn tail.
	failStop := func(err error) error {
		err = fmt.Errorf("server: rotating WAL of session %q: %w", name, err)
		m.failStopWAL(w, err)
		return fail(err)
	}
	if lastLSN > floor {
		old, err := os.Open(path)
		if err != nil {
			return failStop(err)
		}
		rd, err := wal.NewReader(old)
		if err != nil {
			old.Close()
			return failStop(err)
		}
		for lsn := rd.BaseLSN(); lsn < lastLSN; {
			rec, recLSN, nerr := rd.Next()
			if nerr != nil {
				old.Close()
				if nerr == io.EOF {
					nerr = fmt.Errorf("%w: log ends at LSN %d, %d durable records missing", cverr.ErrBadWAL, lsn, lastLSN-lsn)
				}
				return failStop(nerr)
			}
			lsn = recLSN
			if recLSN <= floor {
				continue
			}
			if _, aerr := app.Append(rec); aerr != nil {
				old.Close()
				return fail(aerr)
			}
		}
		old.Close()
	}
	if err := app.Sync(); err != nil {
		return fail(err)
	}
	if err := nf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := m.injector.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Swap the live appender onto the rewritten file.
	w.close()
	f, err := m.injector.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The rewritten file on disk is complete and consistent; only this
		// process lost its handle. A live log degrades — the probe loop's
		// next heal rebuilds the handle along with everything else. A log
		// being adopted has no appender yet and no session to degrade: its
		// caller discards it.
		if w.app != nil {
			m.degradeWAL(w, err)
		}
		return err
	}
	w.f = f
	w.app = wal.ResumeAppender(m.wrapWAL(name, f), lastLSN, m.walSync)
	w.seenBytes, w.seenRecords, w.seenSyncs = 0, 0, 0
	return nil
}

// writeFileSynced writes a file through fn, fsyncs and closes it — the
// prefix of every atomic tmp-then-rename sequence in this file. Open, write
// and fsync all pass through the fault-injection seam, so checkpoint faults
// are injectable at every step of a rotation.
func (m *Manager) writeFileSynced(path string, fn func(io.Writer) error) error {
	f, err := m.injector.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s := m.injector.WrapFile(path, f)
	if err := fn(s); err != nil {
		f.Close()
		return err
	}
	if err := s.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readCheckpointFile loads and verifies one checkpoint frame: a checkpoint
// generation or a park file.
func readCheckpointFile(path string) (lsn uint64, snapshot []byte, err error) {
	frame, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	return wal.ParseCheckpoint(frame)
}

// answersRecord frames an ingest batch as a log record.
func answersRecord(answers []crowdval.Answer) wal.Record {
	rec := wal.Record{Type: wal.RecAddAnswers, Answers: make([]wal.Answer, len(answers))}
	for i, a := range answers {
		rec.Answers[i] = wal.Answer{Object: a.Object, Worker: a.Worker, Label: int(a.Label)}
	}
	return rec
}

// submitRecord frames one expert validation as a log record.
func submitRecord(object int, label crowdval.Label) wal.Record {
	return wal.Record{Type: wal.RecSubmit, Validations: []wal.Validation{{Object: object, Label: int(label)}}}
}

// submitBatchRecord frames a transactional validation batch as a log record.
func submitBatchRecord(inputs []crowdval.ValidationInput) wal.Record {
	rec := wal.Record{Type: wal.RecSubmitBatch, Validations: make([]wal.Validation, len(inputs))}
	for i, in := range inputs {
		rec.Validations[i] = wal.Validation{Object: in.Object, Label: int(in.Label)}
	}
	return rec
}

// budgetRecord frames a monetary budget (re)configuration as a log record.
// Only the parameters are logged — the spent count is reconstructed during
// recovery by replaying the acknowledged submit records, which re-charge the
// tracker through the same Submit paths the live requests took.
func budgetRecord(t crowdval.CostTracker) wal.Record {
	return wal.Record{Type: wal.RecBudget, Budget: &wal.Budget{
		Theta:             t.Theta,
		Total:             t.Budget,
		CrowdTime:         t.Time.CrowdTime,
		TimePerValidation: t.Time.TimePerValidation,
		TimeLimit:         t.TimeLimit,
	}}
}

// RecoveredSession reports the outcome of recovering one session's log.
type RecoveredSession struct {
	// Name is the session name (the log file's base name).
	Name string `json:"name"`
	// CheckpointLSN is the LSN covered by the checkpoint that was resumed;
	// zero when the session was rebuilt from its create record alone.
	CheckpointLSN uint64 `json:"checkpointLSN"`
	// LastLSN is the LSN of the last intact record applied.
	LastLSN uint64 `json:"lastLSN"`
	// Replayed is the number of tail records replayed through the session API.
	Replayed int `json:"replayed"`
	// UsedFallback reports that the newest checkpoint was unreadable and the
	// previous generation was resumed instead (with a longer replay).
	UsedFallback bool `json:"usedFallback,omitempty"`
	// TornTail reports that the log ended in a torn or corrupt record, which
	// recovery dropped — the signature of a crash mid-append.
	TornTail bool `json:"tornTail,omitempty"`
	// Err is non-nil when the session could not be recovered at all; the
	// manager does not serve it. Other sessions recover independently.
	Err error `json:"-"`
}

// Recover scans the WAL directory and rebuilds every logged session: resume
// the newest intact checkpoint (falling back one generation when it is
// damaged), replay the log tail through the session API, and install the
// session in the manager. It must run before the manager serves traffic.
// Each recovered session ends with a fresh checkpoint + log rotation, so a
// torn tail never survives into the resumed log. Per-session failures are
// reported in the returned slice, not as the overall error — one damaged
// session must not block the rest.
func (m *Manager) Recover(ctx context.Context) ([]RecoveredSession, error) {
	if m.walDir == "" {
		return nil, nil
	}
	des, err := os.ReadDir(m.walDir)
	if err != nil {
		return nil, fmt.Errorf("server: scanning WAL directory: %w", err)
	}
	var names []string
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		if name, ok := strings.CutSuffix(de.Name(), ".wal"); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []RecoveredSession
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		r := m.recoverSession(ctx, name)
		if r.Err == nil {
			atomic.AddInt64(&m.live.RecoveredSessions, 1)
			atomic.AddInt64(&m.live.ReplayedRecords, int64(r.Replayed))
		}
		out = append(out, r)
	}
	return out, nil
}

// recoverSession rebuilds one session from its checkpoint and log and
// installs it under its name.
func (m *Manager) recoverSession(ctx context.Context, name string) (r RecoveredSession) {
	r.Name = name
	r.Err = m.install(name, func() (*crowdval.Session, *sessionWAL, error) {
		sess, w, err := m.replayLog(ctx, name, &r)
		return sess, w, err
	})
	return r
}

// replayLog resumes the newest intact checkpoint of a session, replays its
// log tail and reattaches an appender, reporting into r. It ends with a
// checkpoint + log rotation, so a torn tail never survives into the resumed
// log.
func (m *Manager) replayLog(ctx context.Context, name string, r *RecoveredSession) (*crowdval.Session, *sessionWAL, error) {
	// Debris of an interrupted checkpoint or rotation.
	os.Remove(m.ckptPath(name) + ".tmp")
	os.Remove(m.walPath(name) + ".tmp")

	// Newest intact checkpoint, falling back one generation. A missing
	// newest with a present fallback is also a crash signature (killed
	// between the two renames of a rotation), so any failure to read the
	// newest tries the fallback.
	var snap []byte
	var ckptLSN uint64
	haveCkpt := false
	if lsn, s, err := readCheckpointFile(m.ckptPath(name)); err == nil {
		snap, ckptLSN, haveCkpt = s, lsn, true
	} else if lsn, s, err := readCheckpointFile(m.ckptPrevPath(name)); err == nil {
		snap, ckptLSN, haveCkpt = s, lsn, true
		r.UsedFallback = true
	}

	f, err := os.Open(m.walPath(name))
	if err != nil {
		return nil, nil, fmt.Errorf("server: opening WAL of session %q: %w", name, err)
	}
	defer f.Close()
	rd, rdErr := wal.NewReader(f)
	if rdErr != nil && !haveCkpt {
		return nil, nil, fmt.Errorf("server: session %q: log header unreadable and no intact checkpoint: %w", name, rdErr)
	}

	var sess *crowdval.Session
	if haveCkpt {
		sess, err = crowdval.ResumeSession(snap)
		if err != nil {
			return nil, nil, fmt.Errorf("server: resuming checkpoint of session %q: %w", name, err)
		}
		r.CheckpointLSN = ckptLSN
	}
	lastLSN := ckptLSN
	if rdErr != nil {
		// Unreadable log with a good checkpoint: recover the checkpoint state
		// with an empty tail; the closing rotation rebuilds a clean log.
		r.TornTail = true
	} else {
		for {
			rec, lsn, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.TornTail = true
				break
			}
			if haveCkpt && lsn <= ckptLSN {
				continue // already folded into the checkpoint snapshot
			}
			if sess == nil {
				if rec.Type != wal.RecCreate {
					return nil, nil, fmt.Errorf("server: session %q: log starts with record type %d instead of a create record and no checkpoint is intact: %w", name, rec.Type, cverr.ErrBadWAL)
				}
				sess, err = crowdval.ResumeSession(rec.Snapshot)
				if err != nil {
					return nil, nil, fmt.Errorf("server: resuming create record of session %q: %w", name, err)
				}
				lastLSN = lsn
				r.Replayed++
				continue
			}
			if rec.Type == wal.RecCreate {
				// A create record beyond the resumed state means the tail is
				// inconsistent; stop as if torn.
				r.TornTail = true
				break
			}
			if aerr := replayRecord(ctx, sess, rec); aerr != nil {
				// Per-record application errors re-fail exactly as they did
				// live (the library rejects without mutating), so replay
				// ignores them; only cancellation aborts recovery.
				if errors.Is(aerr, context.Canceled) || errors.Is(aerr, context.DeadlineExceeded) {
					return nil, nil, aerr
				}
			}
			lastLSN = lsn
			r.Replayed++
		}
	}
	if sess == nil {
		return nil, nil, fmt.Errorf("server: session %q has neither an intact checkpoint nor a create record: %w", name, cverr.ErrBadWAL)
	}
	r.LastLSN = lastLSN

	// Reattach an appender at the clean LSN. The file may still carry torn
	// tail bytes; the unconditional rotation below rewrites it canonically
	// before any new record is appended.
	af, err := os.OpenFile(m.walPath(name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: reopening WAL of session %q: %w", name, err)
	}
	w := &sessionWAL{
		f:           af,
		app:         wal.ResumeAppender(m.wrapWAL(name, af), lastLSN, m.walSync),
		lastCkptLSN: ckptLSN,
	}
	if r.UsedFallback {
		// The newest checkpoint is corrupt; deleting it keeps the rotation
		// below from demoting garbage over the good fallback generation.
		os.Remove(m.ckptPath(name))
	}
	if err := m.checkpoint(name, sess, w); err != nil {
		atomic.AddInt64(&m.live.CheckpointFailures, 1)
		if r.TornTail {
			// Without the rewrite the torn bytes are still in the file and
			// appending after them would corrupt the log: degrade, and let
			// the probe loop retry the rewrite.
			m.degradeWAL(w, err)
		}
	} else {
		atomic.AddInt64(&m.live.Checkpoints, 1)
	}
	return sess, w, nil
}

// replayRecord applies one logged mutation to a session being recovered.
func replayRecord(ctx context.Context, sess *crowdval.Session, rec wal.Record) error {
	switch rec.Type {
	case wal.RecAddAnswers:
		answers := make([]crowdval.Answer, len(rec.Answers))
		for i, a := range rec.Answers {
			answers[i] = crowdval.Answer{Object: a.Object, Worker: a.Worker, Label: crowdval.Label(a.Label)}
		}
		return sess.AddAnswers(ctx, answers)
	case wal.RecSubmit:
		_, err := sess.SubmitValidationContext(ctx, rec.Validations[0].Object, crowdval.Label(rec.Validations[0].Label))
		return err
	case wal.RecSubmitBatch:
		inputs := make([]crowdval.ValidationInput, len(rec.Validations))
		for i, v := range rec.Validations {
			inputs[i] = crowdval.ValidationInput{Object: v.Object, Label: crowdval.Label(v.Label)}
		}
		_, err := sess.SubmitValidations(ctx, inputs)
		return err
	case wal.RecBudget:
		b := rec.Budget
		sess.SetCostBudget(crowdval.CostTracker{
			Theta:  b.Theta,
			Budget: b.Total,
			Time: crowdval.CompletionTime{
				CrowdTime:         b.CrowdTime,
				TimePerValidation: b.TimePerValidation,
			},
			TimeLimit: b.TimeLimit,
		})
		return nil
	case wal.RecNoop:
		return nil
	default:
		return fmt.Errorf("server: replaying unknown record type %d: %w", rec.Type, cverr.ErrBadWAL)
	}
}

// errManagerClosed marks session logs retired by Manager.Close: further
// mutations are rejected through the fail-stop path instead of silently
// applying unlogged.
var errManagerClosed = errors.New("server: manager closed")

// Close flushes and fsyncs every open session write-ahead log and releases
// the log file handles — the graceful-shutdown counterpart of crash
// recovery. Under the interval and off sync policies acknowledged records
// may still sit in an appender's buffer; without this flush a perfectly
// clean restart could lose more than the documented crash-risk window. Call
// it after the HTTP server has stopped accepting requests; Close is
// idempotent, mutations attempted afterwards are rejected through the
// fail-stop path, and a manager without a WAL has nothing to do.
func (m *Manager) Close() error {
	if m.walDir == "" {
		return nil
	}
	m.mu.Lock()
	entries := make([]*entry, 0, len(m.sessions))
	for _, e := range m.sessions {
		entries = append(entries, e)
	}
	m.mu.Unlock()
	var firstErr error
	for _, e := range entries {
		e.mu.Lock()
		if w := e.log; w != nil {
			if w.state == walHealthy {
				if err := w.app.Sync(); err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("server: syncing WAL of session %q at shutdown: %w", e.name, err)
					}
				} else {
					m.foldWALMetrics(w)
				}
			}
			m.failStopWAL(w, errManagerClosed)
			w.close()
		}
		e.mu.Unlock()
	}
	return firstErr
}
