package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"

	"crowdval"
	"crowdval/internal/cverr"
	"crowdval/internal/wal"
)

// walOp is one scripted session mutation for the durability tests.
type walOp struct {
	answers     []crowdval.Answer // ingest when non-nil
	object      int               // validation otherwise
	label       crowdval.Label
	batch       []crowdval.ValidationInput // transactional batch when non-nil
	budget      *crowdval.CostTracker      // install/replace the monetary budget when non-nil
	expectError bool                       // the op is expected to be rejected (and must re-reject on replay)
}

// walScript builds a deterministic mutation mix against the test crowd:
// ingests from extra workers, single validations, a transactional batch, and
// one invalid op that must fail identically live and on replay.
func walScript(d *crowdval.Dataset, extra *crowdval.Dataset) []walOp {
	ingest := func(worker, from, to int) []crowdval.Answer {
		var answers []crowdval.Answer
		for o := from; o < to; o++ {
			if l := extra.Answers.Answer(o, worker); l >= 0 {
				answers = append(answers, crowdval.Answer{Object: o, Worker: d.Answers.NumWorkers() + worker, Label: l})
			}
		}
		return answers
	}
	return []walOp{
		{answers: ingest(0, 0, 8)},
		{object: 0, label: d.Truth[0]},
		{answers: ingest(1, 4, 12)},
		{object: 1, label: d.Truth[1]},
		{object: 0, label: d.Truth[0], expectError: true}, // ErrAlreadyValidated, live and on replay
		{batch: []crowdval.ValidationInput{{Object: 2, Label: d.Truth[2]}, {Object: 3, Label: d.Truth[3]}}},
		{answers: ingest(2, 0, 16)},
		{object: 4, label: d.Truth[4]},
	}
}

// runScript applies ops through the manager and returns which were
// acknowledged (nil error). WAL failures after an injected fault are
// expected; unexpected errors on a healthy manager fail the test.
func runScript(t testing.TB, m *Manager, name string, ops []walOp, strict bool) []bool {
	t.Helper()
	ctx := context.Background()
	acked := make([]bool, len(ops))
	for i, op := range ops {
		var err error
		switch {
		case op.answers != nil:
			_, err = m.AddAnswers(ctx, name, op.answers)
		case op.batch != nil:
			_, err = m.SubmitBatch(ctx, name, op.batch)
		case op.budget != nil:
			err = m.SetBudget(ctx, name, *op.budget)
		default:
			_, err = m.Submit(ctx, name, op.object, op.label)
		}
		if op.expectError {
			if err == nil {
				t.Fatalf("op %d: expected an application error", i)
			}
			continue
		}
		acked[i] = err == nil
		if strict && err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	return acked
}

// replaySerial rebuilds the expected state library-side: a fresh session plus
// the acknowledged ops applied in order, skipping the deliberately invalid
// ones. The returned snapshot is the ground truth recovery must reproduce.
func replaySerial(t testing.TB, d *crowdval.Dataset, opts []crowdval.Option, ops []walOp, acked []bool) []byte {
	t.Helper()
	ctx := context.Background()
	sess, err := crowdval.NewSession(d.Answers.Clone(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if !acked[i] || op.expectError {
			continue
		}
		switch {
		case op.answers != nil:
			err = sess.AddAnswers(ctx, op.answers)
		case op.batch != nil:
			_, err = sess.SubmitValidations(ctx, op.batch)
		case op.budget != nil:
			sess.SetCostBudget(*op.budget)
		default:
			_, err = sess.SubmitValidationContext(ctx, op.object, op.label)
		}
		if err != nil {
			t.Fatalf("serial replay op %d: %v", i, err)
		}
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// walManagerConfig builds a durable manager config over test temp dirs.
func walManagerConfig(t testing.TB, walDir string, ckptEvery int) ManagerConfig {
	t.Helper()
	return ManagerConfig{
		ParkDir:         t.TempDir(),
		CheckpointEvery: ckptEvery,
	}.WithWAL(walDir, wal.SyncPolicy{Mode: wal.SyncAlways})
}

// sessionOpts are the deterministic options every durability test session
// uses (baseline strategy: no stateful roulette prologue to perturb).
func sessionOpts(extra ...crowdval.Option) []crowdval.Option {
	return append([]crowdval.Option{
		crowdval.WithStrategy(crowdval.StrategyBaseline),
		crowdval.WithSeed(3),
		crowdval.WithParallelism(1),
	}, extra...)
}

func managerSnapshot(t testing.TB, m *Manager, name string) []byte {
	t.Helper()
	snap, err := m.Snapshot(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// recoverInto runs recovery on a fresh manager over the same WAL dir and
// returns it with the per-session reports.
func recoverInto(t testing.TB, walDir string, ckptEvery int) (*Manager, []RecoveredSession) {
	t.Helper()
	m, err := NewManager(walManagerConfig(t, walDir, ckptEvery))
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m, report
}

// TestRecoverMatrix walks the recovery shapes: tail-only (no checkpoint yet),
// checkpoint-only (nothing after the last checkpoint), checkpoint+tail, and a
// torn tail appended to each. Recovery must reproduce the exact serial-replay
// snapshot in every cell — the full-path session's bit-for-bit guarantee.
func TestRecoverMatrix(t *testing.T) {
	d := testCrowd(t, 16, 5, 11)
	extra := testCrowd(t, 16, 3, 13)

	cases := []struct {
		name      string
		ckptEvery int
		nOps      int // prefix of the script to run
		tear      int // garbage bytes appended to the log before recovery
		wantCkpt  bool
		wantTail  bool // replayed records beyond the create/checkpoint
	}{
		{name: "tail-only", ckptEvery: -1, nOps: 8, wantTail: true},
		{name: "tail-only-torn", ckptEvery: -1, nOps: 8, tear: 5, wantTail: true},
		{name: "checkpoint-only", ckptEvery: 3, nOps: 3, wantCkpt: true},
		{name: "checkpoint-plus-tail", ckptEvery: 5, nOps: 8, wantCkpt: true, wantTail: true},
		{name: "checkpoint-plus-torn-tail", ckptEvery: 5, nOps: 8, tear: 11, wantCkpt: true, wantTail: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			walDir := t.TempDir()
			m1, err := NewManager(walManagerConfig(t, walDir, tc.ckptEvery))
			if err != nil {
				t.Fatal(err)
			}
			const name = "matrix"
			if err := m1.Create(context.Background(), name, d.Answers.Clone(), sessionOpts()...); err != nil {
				t.Fatal(err)
			}
			ops := walScript(d, extra)[:tc.nOps]
			acked := runScript(t, m1, name, ops, true)
			want := managerSnapshot(t, m1, name)
			// Abandon m1 without shutdown — the crash. SyncAlways means every
			// acknowledged mutation is already on disk.

			if tc.tear > 0 {
				f, err := os.OpenFile(m1.walPath(name), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(bytes.Repeat([]byte{0xAB}, tc.tear)); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			m2, report := recoverInto(t, walDir, tc.ckptEvery)
			if len(report) != 1 {
				t.Fatalf("recovered %d sessions, want 1", len(report))
			}
			r := report[0]
			if r.Err != nil {
				t.Fatalf("recovery failed: %v", r.Err)
			}
			if r.Name != name {
				t.Fatalf("recovered %q, want %q", r.Name, name)
			}
			if tc.wantCkpt && r.CheckpointLSN == 0 {
				t.Fatal("expected a checkpoint to be resumed")
			}
			if !tc.wantCkpt && r.CheckpointLSN != 0 {
				t.Fatalf("unexpected checkpoint at LSN %d", r.CheckpointLSN)
			}
			if tc.wantTail && r.Replayed == 0 {
				t.Fatal("expected tail records to be replayed")
			}
			if tc.tear > 0 && !r.TornTail {
				t.Fatal("torn tail not reported")
			}
			got := managerSnapshot(t, m2, name)
			if !bytes.Equal(got, want) {
				t.Fatal("recovered snapshot differs from the pre-crash state")
			}
			// The invalid op replays to the same rejection: re-run the full
			// script tail against the recovered session to prove it still
			// behaves like the original (same guard state).
			if tc.nOps == len(walScript(d, extra)) {
				if _, err := m2.Submit(context.Background(), name, 0, d.Truth[0]); !errors.Is(err, cverr.ErrAlreadyValidated) {
					t.Fatalf("replayed session lost its validation guard: %v", err)
				}
			}
			_ = acked
		})
	}
}

// TestRecoverEmptyDir: recovery over a WAL directory with no logs is a no-op.
func TestRecoverEmptyDir(t *testing.T) {
	m, report := recoverInto(t, t.TempDir(), 0)
	if len(report) != 0 {
		t.Fatalf("recovered %d sessions from an empty dir", len(report))
	}
	if got := len(m.Sessions()); got != 0 {
		t.Fatalf("%d sessions after empty recovery", got)
	}
}

// TestRecoverCorruptCheckpointFallsBack damages the newest checkpoint and
// checks recovery resumes the previous generation with a longer replay, still
// landing on the exact pre-crash state.
func TestRecoverCorruptCheckpointFallsBack(t *testing.T) {
	d := testCrowd(t, 16, 5, 17)
	extra := testCrowd(t, 16, 3, 19)
	walDir := t.TempDir()
	m1, err := NewManager(walManagerConfig(t, walDir, 3))
	if err != nil {
		t.Fatal(err)
	}
	const name = "fallback"
	if err := m1.Create(context.Background(), name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	runScript(t, m1, name, walScript(d, extra), true)
	want := managerSnapshot(t, m1, name)
	if _, err := os.Stat(m1.ckptPrevPath(name)); err != nil {
		t.Fatalf("test needs two checkpoint generations: %v", err)
	}

	// Flip a byte in the newest checkpoint's snapshot region.
	raw, err := os.ReadFile(m1.ckptPath(name))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(m1.ckptPath(name), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, report := recoverInto(t, walDir, 3)
	if len(report) != 1 || report[0].Err != nil {
		t.Fatalf("recovery report: %+v", report)
	}
	if !report[0].UsedFallback {
		t.Fatal("recovery did not report the checkpoint fallback")
	}
	if report[0].Replayed == 0 {
		t.Fatal("fallback recovery should replay a longer tail")
	}
	if got := managerSnapshot(t, m2, name); !bytes.Equal(got, want) {
		t.Fatal("fallback recovery landed on a different state")
	}
}

// TestTruncationKeepsFallbackWindow asserts the rotation invariant directly:
// after any checkpoint, the log's base LSN equals the LSN of the *older*
// surviving checkpoint generation, so the newest checkpoint is never the only
// way to reach any LSN — no record newer than the fallback floor is deleted.
func TestTruncationKeepsFallbackWindow(t *testing.T) {
	d := testCrowd(t, 16, 5, 23)
	extra := testCrowd(t, 16, 3, 29)
	walDir := t.TempDir()
	m, err := NewManager(walManagerConfig(t, walDir, 2))
	if err != nil {
		t.Fatal(err)
	}
	const name = "floor"
	if err := m.Create(context.Background(), name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	runScript(t, m, name, walScript(d, extra), true)

	prevLSN, _, err := readCheckpointFile(m.ckptPrevPath(name))
	if err != nil {
		t.Fatalf("reading fallback checkpoint: %v", err)
	}
	newestLSN, _, err := readCheckpointFile(m.ckptPath(name))
	if err != nil {
		t.Fatalf("reading newest checkpoint: %v", err)
	}
	f, err := os.Open(m.walPath(name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := wal.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if rd.BaseLSN() != prevLSN {
		t.Fatalf("log truncated to LSN %d; fallback checkpoint needs %d", rd.BaseLSN(), prevLSN)
	}
	// Every LSN from the fallback floor to at least the newest checkpoint is
	// present and intact.
	last := rd.BaseLSN()
	for {
		_, lsn, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("rotated log has a bad record: %v", err)
		}
		if lsn != last+1 {
			t.Fatalf("rotated log skipped LSN %d -> %d", last, lsn)
		}
		last = lsn
	}
	if last < newestLSN {
		t.Fatalf("rotated log ends at LSN %d, before the newest checkpoint %d", last, newestLSN)
	}
}

// TestRecoverUnrecoverable: both checkpoints damaged and the log header
// destroyed must produce a per-session error, not a panic or a half-session,
// and must not block other sessions from recovering.
func TestRecoverUnrecoverable(t *testing.T) {
	d := testCrowd(t, 16, 5, 31)
	extra := testCrowd(t, 16, 3, 37)
	walDir := t.TempDir()
	m1, err := NewManager(walManagerConfig(t, walDir, -1))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dead", "alive"} {
		if err := m1.Create(context.Background(), name, d.Answers.Clone(), sessionOpts()...); err != nil {
			t.Fatal(err)
		}
	}
	runScript(t, m1, "alive", walScript(d, extra)[:3], true)
	want := managerSnapshot(t, m1, "alive")

	// Destroy "dead" beyond repair: no checkpoints exist (-1), so zeroing the
	// log header removes every recovery path.
	if err := os.WriteFile(m1.walPath("dead"), make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, report := recoverInto(t, walDir, -1)
	if len(report) != 2 {
		t.Fatalf("recovery report has %d entries, want 2", len(report))
	}
	byName := map[string]RecoveredSession{}
	for _, r := range report {
		byName[r.Name] = r
	}
	if byName["dead"].Err == nil {
		t.Fatal("destroyed session recovered without error")
	}
	if !errors.Is(byName["dead"].Err, cverr.ErrBadWAL) {
		t.Fatalf("destroyed session error %v does not wrap ErrBadWAL", byName["dead"].Err)
	}
	if byName["alive"].Err != nil {
		t.Fatalf("healthy session failed to recover: %v", byName["alive"].Err)
	}
	if got := managerSnapshot(t, m2, "alive"); !bytes.Equal(got, want) {
		t.Fatal("healthy session recovered to a different state")
	}
	if _, err := m2.Snapshot(context.Background(), "dead"); !errors.Is(err, cverr.ErrSessionNotFound) {
		t.Fatalf("unrecoverable session is being served: %v", err)
	}
}

// TestDeleteRemovesWALFiles: deleting a session removes its log and both
// checkpoint generations, so a later same-name session starts clean.
func TestDeleteRemovesWALFiles(t *testing.T) {
	d := testCrowd(t, 16, 5, 41)
	extra := testCrowd(t, 16, 3, 43)
	walDir := t.TempDir()
	m, err := NewManager(walManagerConfig(t, walDir, 2))
	if err != nil {
		t.Fatal(err)
	}
	const name = "doomed"
	if err := m.Create(context.Background(), name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	runScript(t, m, name, walScript(d, extra), true)
	if err := m.Delete(name); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{m.walPath(name), m.ckptPath(name), m.ckptPrevPath(name)} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived the delete: %v", path, err)
		}
	}
	if _, report := recoverInto(t, walDir, 2); len(report) != 0 {
		t.Fatalf("deleted session left %d recoverable logs", len(report))
	}
}

// TestIngestBackpressure: with a queue bound of 1 and the session write lock
// held, the second queued ingest is shed with ErrOverloaded (HTTP 429 via
// statusFor) and counted in the stats.
func TestIngestBackpressure(t *testing.T) {
	d := testCrowd(t, 16, 5, 47)
	m, err := NewManager(ManagerConfig{ParkDir: t.TempDir(), MaxQueuedIngest: 1})
	if err != nil {
		t.Fatal(err)
	}
	const name = "busy"
	if err := m.Create(context.Background(), name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	e := m.sessions[name]
	m.mu.Unlock()

	// Hold the write lock so queued tickets cannot drain.
	e.mu.Lock()
	first := make(chan error, 1)
	go func() {
		_, err := m.AddAnswers(context.Background(), name,
			[]crowdval.Answer{{Object: 0, Worker: 5, Label: 1}})
		first <- err
	}()
	waitFor(t, func() bool {
		e.ingestMu.Lock()
		defer e.ingestMu.Unlock()
		return len(e.ingestQueue) == 1
	})
	_, err = m.AddAnswers(context.Background(), name,
		[]crowdval.Answer{{Object: 1, Worker: 5, Label: 0}})
	if !errors.Is(err, cverr.ErrOverloaded) {
		t.Fatalf("second ingest: %v, want ErrOverloaded", err)
	}
	if status := statusFor(err); status != http.StatusTooManyRequests {
		t.Fatalf("ErrOverloaded maps to %d, want 429", status)
	}
	e.mu.Unlock()
	if err := <-first; err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	if got := m.Stats().ShedIngests; got != 1 {
		t.Fatalf("ShedIngests = %d, want 1", got)
	}
}

// TestPrometheusEndpoint scrapes GET /metrics and checks the text exposition
// shape and a few counters that must reflect the traffic just sent.
func TestPrometheusEndpoint(t *testing.T) {
	d := testCrowd(t, 16, 5, 53)
	walDir := t.TempDir()
	m, err := NewManager(walManagerConfig(t, walDir, -1))
	if err != nil {
		t.Fatal(err)
	}
	base := serveManager(t, m)
	if err := m.Create(context.Background(), "prom", d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), "prom", 0, d.Truth[0]); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE crowdval_sessions gauge",
		"crowdval_sessions 1",
		"# TYPE crowdval_validations_total counter",
		"crowdval_validations_total 1",
		"# TYPE crowdval_wal_records_total counter",
		"# TYPE crowdval_wal_fsyncs_total counter",
		"# TYPE crowdval_checkpoints_total counter",
		"# TYPE crowdval_shed_ingests_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("GET /metrics missing %q in:\n%s", want, body)
		}
	}
	// The WAL logged the create record and the validation.
	stats := m.Stats()
	if stats.WALRecords < 2 {
		t.Fatalf("WALRecords = %d, want >= 2", stats.WALRecords)
	}
	if !strings.Contains(body, fmt.Sprintf("crowdval_wal_records_total %d", stats.WALRecords)) {
		t.Fatalf("GET /metrics does not carry the WAL record counter:\n%s", body)
	}
}

// TestLoggedMutationIgnoresRequestCancellation pins the acknowledge-after-log
// contract: once a mutation's record is appended to the WAL it will be
// replayed after a crash, so the live apply must run to completion even when
// the request's context is cancelled mid-flight — a cancellation rollback of
// the live state would diverge from recovery. Checked on both live write
// paths (a submit, and the ingest drain's own-ticket path), and recovery
// must land bit-for-bit on the live state.
func TestLoggedMutationIgnoresRequestCancellation(t *testing.T) {
	d := testCrowd(t, 16, 5, 67)
	walDir := t.TempDir()
	m1, err := NewManager(walManagerConfig(t, walDir, -1))
	if err != nil {
		t.Fatal(err)
	}
	// The client vanishes while its record is being appended: the log file
	// cancels the request's context from inside the write.
	var cancelOnAppend context.CancelFunc
	m1.walOpen = func(_ string, f *os.File) wal.File {
		return writeHook{File: f, before: func() {
			if cancelOnAppend != nil {
				cancelOnAppend()
				cancelOnAppend = nil
			}
		}}
	}
	const name = "cancelled"
	if err := m1.Create(context.Background(), name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}

	// Submit path: the record is logged under SyncAlways, so the write runs
	// inside the append; the apply that follows must not see the
	// cancellation and the mutation must still be acknowledged.
	ctx, cancel := context.WithCancel(context.Background())
	cancelOnAppend = cancel
	if _, err := m1.Submit(ctx, name, 0, d.Truth[0]); err != nil {
		t.Fatalf("logged submit rolled back on cancellation: %v", err)
	}
	if ctx.Err() == nil {
		t.Fatal("the request was not cancelled while its record was appended")
	}

	// Ingest drain path: park the ticket behind a held write lock, cancel the
	// request while it is queued, then let it drain. The logged batch must
	// apply and be acknowledged.
	m1.mu.Lock()
	e := m1.sessions[name]
	m1.mu.Unlock()
	ictx, icancel := context.WithCancel(context.Background())
	defer icancel()
	e.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := m1.AddAnswers(ictx, name, []crowdval.Answer{{Object: 1, Worker: 5, Label: 1}})
		done <- err
	}()
	waitFor(t, func() bool {
		e.ingestMu.Lock()
		defer e.ingestMu.Unlock()
		return len(e.ingestQueue) == 1
	})
	icancel()
	e.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("logged ingest rolled back on cancellation: %v", err)
	}

	want := managerSnapshot(t, m1, name)
	m2, report := recoverInto(t, walDir, -1)
	if len(report) != 1 || report[0].Err != nil {
		t.Fatalf("recovery report: %+v", report)
	}
	if got := managerSnapshot(t, m2, name); !bytes.Equal(got, want) {
		t.Fatal("recovered state diverged from the live state after cancelled requests")
	}
}

// writeHook is a log file that calls before ahead of every write.
type writeHook struct {
	*os.File
	before func()
}

func (w writeHook) Write(p []byte) (int, error) {
	w.before()
	return w.File.Write(p)
}

// TestRotationFailsStopOnCorruptLog pins the rotation integrity check: every
// record through the checkpoint's LSN was fsynced before rotation starts, so
// a record that cannot be read back is corruption, not a torn tail — the
// rotation must fail the session stop instead of installing a shortened log
// with an implicit-LSN gap. A restart then heals through the (intact) newest
// checkpoint.
func TestRotationFailsStopOnCorruptLog(t *testing.T) {
	d := testCrowd(t, 16, 5, 71)
	extra := testCrowd(t, 16, 3, 73)
	walDir := t.TempDir()
	m1, err := NewManager(walManagerConfig(t, walDir, 5))
	if err != nil {
		t.Fatal(err)
	}
	const name = "midrot"
	if err := m1.Create(context.Background(), name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	ops := walScript(d, extra)
	runScript(t, m1, name, ops[:3], true)

	// Flip a byte inside the create record's payload — a durable record far
	// below the LSN the next checkpoint will cover.
	f, err := os.OpenFile(m1.walPath(name), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xAB}, 16+8+5); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Ops 4 and 5 log fine; the 5th trips the checkpoint whose rotation hits
	// the corrupt record and fails the session stop.
	runScript(t, m1, name, ops[3:5], true)
	if got := m1.Stats().CheckpointFailures; got != 1 {
		t.Fatalf("CheckpointFailures = %d, want 1", got)
	}
	if _, err := m1.Submit(context.Background(), name, 10, d.Truth[10]); err == nil {
		t.Fatal("mutation accepted after the log failed stop")
	} else if !errors.Is(err, cverr.ErrBadWAL) {
		t.Fatalf("fail-stop error %v does not wrap ErrBadWAL", err)
	}
	want := managerSnapshot(t, m1, name) // state after the acknowledged ops

	// The rotation installed its checkpoint before failing, so a restart
	// recovers everything — including the two ops logged after the corruption.
	m2, report := recoverInto(t, walDir, 5)
	if len(report) != 1 || report[0].Err != nil {
		t.Fatalf("recovery report: %+v", report)
	}
	if got := managerSnapshot(t, m2, name); !bytes.Equal(got, want) {
		t.Fatal("post-fail-stop recovery diverged from the live state")
	}
}

// TestCloseFlushesBufferedRecords pins graceful shutdown under SyncOff: the
// acknowledged records sitting in the appender's buffer must reach the disk
// through Manager.Close, so a clean restart loses nothing — the
// buffered-records risk window is for crashes only.
func TestCloseFlushesBufferedRecords(t *testing.T) {
	d := testCrowd(t, 16, 5, 79)
	extra := testCrowd(t, 16, 3, 83)
	walDir := t.TempDir()
	cfg := walManagerConfig(t, walDir, -1)
	cfg.WALSync = wal.SyncPolicy{Mode: wal.SyncOff}
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const name = "graceful"
	if err := m1.Create(context.Background(), name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	runScript(t, m1, name, walScript(d, extra), true)
	want := managerSnapshot(t, m1, name)
	if err := m1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m1.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := m1.Submit(context.Background(), name, 10, d.Truth[10]); err == nil {
		t.Fatal("mutation accepted after Close")
	}

	m2, report := recoverInto(t, walDir, -1)
	if len(report) != 1 || report[0].Err != nil {
		t.Fatalf("recovery report: %+v", report)
	}
	if report[0].TornTail {
		t.Fatal("gracefully closed log reported a torn tail")
	}
	if got := managerSnapshot(t, m2, name); !bytes.Equal(got, want) {
		t.Fatal("graceful shutdown lost buffered records")
	}
}

// TestConcurrentMetricsScrape hammers /metrics while 8 clients ingest and
// validate through eviction/resume churn (tiny memory budget) on a durable
// manager — the unsynchronized-stats audit. Run with -race in CI: the scrape
// path must be data-race-free against in-flight WAL appends and parking.
func TestConcurrentMetricsScrape(t *testing.T) {
	d := testCrowd(t, 16, 5, 59)
	extra := testCrowd(t, 16, 3, 61)
	cfg := walManagerConfig(t, t.TempDir(), 4)
	cfg.MemoryBudget = 1 // every settle picks eviction victims: park/resume churn
	cfg.WALSync = wal.SyncPolicy{Mode: wal.SyncInterval, Interval: 4}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := serveManager(t, m)

	const clients = 8
	for i := 0; i < clients; i++ {
		name := fmt.Sprintf("scrape-%d", i)
		if err := m.Create(context.Background(), name, d.Answers.Clone(), sessionOpts(crowdval.WithDeltaIngest())...); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			_ = m.Stats()
		}
	}()

	var wg sync.WaitGroup
	ops := walScript(d, extra)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("scrape-%d", i)
			runScript(t, m, name, ops, false)
		}(i)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	stats := m.Stats()
	if stats.WALRecords == 0 || stats.WALSyncs == 0 {
		t.Fatalf("WAL counters did not move: %+v", stats)
	}
	if stats.Sessions != clients {
		t.Fatalf("Sessions = %d, want %d", stats.Sessions, clients)
	}
}
