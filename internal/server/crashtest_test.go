package server

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"crowdval"
	"crowdval/internal/aggregation"
	"crowdval/internal/fault"
	"crowdval/internal/wal"
)

// The crash harness meters every WAL file a manager opens against a shared
// byte budget (fault.Budget / fault.BudgetFile): the write that crosses the
// budget is truncated at the boundary and fails, and every later write or
// fsync fails too — the process "crashed" with exactly budget bytes durable.

// faultManager builds a durable manager whose WAL writes stop after budget
// bytes. budget < 0 disables the fault (clean run).
func faultManager(t testing.TB, walDir string, ckptEvery int, budget int64) *Manager {
	t.Helper()
	m, err := NewManager(walManagerConfig(t, walDir, ckptEvery))
	if err != nil {
		t.Fatal(err)
	}
	if budget >= 0 {
		shared := fault.NewBudget(budget)
		m.walOpen = func(name string, f *os.File) wal.File {
			return &fault.BudgetFile{F: f, Budget: shared}
		}
	}
	return m
}

// crashWorkers sizes the seed crowd of the byte-walking harnesses. The create
// record holds the packed snapshot of that crowd, so its width sets how many
// crash points a harness walks: 28 workers give logs of about 3.3 KB.
const crashWorkers = 28

// crashScript is the serial op sequence the harness replays at every crash
// point. Kept short: the clean log is walked byte by byte.
func crashScript(d, extra *crowdval.Dataset) []walOp {
	ops := walScript(d, extra)
	return []walOp{ops[0], ops[1], ops[2], ops[5], ops[7]}
}

// runToCrash creates the session and runs the script, tolerating injected
// failures. Returns whether the create was acked and which ops were.
func runToCrash(t testing.TB, m *Manager, name string, d *crowdval.Dataset, ops []walOp) (created bool, acked []bool) {
	t.Helper()
	err := m.Create(context.Background(), name, d.Answers.Clone(), sessionOpts()...)
	if err != nil {
		return false, make([]bool, len(ops))
	}
	return true, runScript(t, m, name, ops, false)
}

// verifyRecovery recovers the WAL dir into a fresh manager and checks the
// recovered session is byte-identical to a library-level serial replay of
// exactly the acknowledged ops. If the create itself was never acked, no
// session may surface.
func verifyRecovery(t testing.TB, walDir string, ckptEvery int, d *crowdval.Dataset, name string, created bool, ops []walOp, acked []bool) {
	t.Helper()
	m, err := NewManager(walManagerConfig(t, walDir, ckptEvery))
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		if len(report) != 0 {
			t.Fatalf("unacked create resurfaced: %+v", report)
		}
		return
	}
	if len(report) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(report))
	}
	if report[0].Err != nil {
		t.Fatalf("recovery error: %v", report[0].Err)
	}
	got := managerSnapshot(t, m, name)
	want := replaySerial(t, d, sessionOpts(), ops, acked)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered state diverges from the %d acked ops (torn=%v, ckptLSN=%d, replayed=%d)",
			countTrue(acked), report[0].TornTail, report[0].CheckpointLSN, report[0].Replayed)
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestCrashAtEveryWALByte is the exhaustive kill harness for the append path:
// a clean SyncAlways run (checkpoints disabled so every byte lands in one
// file) measures the log size after each acknowledged op; then the run is
// repeated with the WAL cut at every record boundary, one byte past it, and
// every midpoint in between. At each crash point recovery must reconstruct
// exactly the acknowledged prefix — never a phantom op, never a lost ack.
func TestCrashAtEveryWALByte(t *testing.T) {
	d := testCrowd(t, 16, crashWorkers, 67)
	extra := testCrowd(t, 16, 3, 71)
	ops := crashScript(d, extra)
	const name = "crash"

	// Phase 1: clean run, record the durable boundary after each acked op.
	cleanDir := t.TempDir()
	m := faultManager(t, cleanDir, -1, -1)
	created, acked := runToCrash(t, m, name, d, ops)
	if !created || countTrue(acked) != len(ops) {
		t.Fatalf("clean run dropped ops: created=%v acked=%d/%d", created, countTrue(acked), len(ops))
	}
	info, err := os.Stat(m.walPath(name))
	if err != nil {
		t.Fatal(err)
	}
	logSize := info.Size()

	// Crash budgets: every byte of the log. The log is small by construction
	// (about 3.3 KB), so this stays fast while covering each boundary, each
	// boundary+1, and every mid-record offset.
	for budget := int64(0); budget <= logSize; budget++ {
		budget := budget
		t.Run(fmt.Sprintf("budget-%d", budget), func(t *testing.T) {
			t.Parallel()
			walDir := t.TempDir()
			m := faultManager(t, walDir, -1, budget)
			created, acked := runToCrash(t, m, name, d, ops)
			verifyRecovery(t, walDir, -1, d, name, created, ops, acked)
		})
	}
}

// budgetCrashScript interleaves monetary budget installs with the mutation
// mix: a tight budget (θ=10, b=35: exactly three validations) is spent down
// to exhaustion, then refunded mid-stream. Every op is valid, so ack-or-not
// depends only on where the WAL was cut — and the recovered tracker (θ,
// total, spent, deadline) must equal the serial replay of exactly the acked
// ops, which the v4 snapshot comparison checks bit for bit.
func budgetCrashScript(d, extra *crowdval.Dataset) []walOp {
	base := walScript(d, extra)
	return []walOp{
		{budget: &crowdval.CostTracker{Theta: 10, Budget: 35}},
		base[0], // ingest
		base[1], // submit object 0: spent 1
		base[5], // batch of 2: spent 3, budget exhausted
		{budget: &crowdval.CostTracker{Theta: 10, Budget: 90}}, // refund; spent carries over
		base[7], // submit object 4: spent 4
	}
}

// TestCrashBudgetAtEveryWALByte is the kill-at-every-byte harness for the
// RecBudget record: the budgeted script is run with the WAL cut at every
// byte offset, and recovery must reconstruct the per-tenant budget state —
// θ, total, spent count, exhaustion — of exactly the acknowledged prefix.
// A lost budget install must not resurrect spending headroom, and a torn
// submit must not leave a phantom charge.
func TestCrashBudgetAtEveryWALByte(t *testing.T) {
	d := testCrowd(t, 16, crashWorkers, 97)
	extra := testCrowd(t, 16, 3, 101)
	ops := budgetCrashScript(d, extra)
	const name = "budgetcrash"

	cleanDir := t.TempDir()
	m := faultManager(t, cleanDir, -1, -1)
	created, acked := runToCrash(t, m, name, d, ops)
	if !created || countTrue(acked) != len(ops) {
		t.Fatalf("clean run dropped ops: created=%v acked=%d/%d", created, countTrue(acked), len(ops))
	}
	info, err := os.Stat(m.walPath(name))
	if err != nil {
		t.Fatal(err)
	}
	logSize := info.Size()

	for budget := int64(0); budget <= logSize; budget++ {
		budget := budget
		t.Run(fmt.Sprintf("budget-%d", budget), func(t *testing.T) {
			t.Parallel()
			walDir := t.TempDir()
			m := faultManager(t, walDir, -1, budget)
			created, acked := runToCrash(t, m, name, d, ops)
			verifyRecovery(t, walDir, -1, d, name, created, ops, acked)
		})
	}
}

// TestCrashBudgetDuringCheckpoint drives the budgeted script through
// aggressive checkpointing so crashes land inside v4 snapshot writes and log
// rewrites: a checkpoint that dies mid-write must fall back to the previous
// generation without losing or double-charging a single validation.
func TestCrashBudgetDuringCheckpoint(t *testing.T) {
	d := testCrowd(t, 16, crashWorkers, 103)
	extra := testCrowd(t, 16, 3, 107)
	ops := budgetCrashScript(d, extra)
	const name = "budgetckpt"

	m := faultManager(t, t.TempDir(), 2, -1)
	created, acked := runToCrash(t, m, name, d, ops)
	if !created || countTrue(acked) != len(ops) {
		t.Fatal("clean checkpointing run dropped ops")
	}
	total := m.Stats().WALBytes
	if m.Stats().Checkpoints < 2 {
		t.Fatalf("clean run made %d checkpoints; the test needs rotation", m.Stats().Checkpoints)
	}

	budgets := []int64{0, 1, total - 1, total}
	for b := int64(2); b < total-1; b += 7 {
		budgets = append(budgets, b)
	}
	for _, budget := range budgets {
		budget := budget
		t.Run(fmt.Sprintf("budget-%d", budget), func(t *testing.T) {
			t.Parallel()
			walDir := t.TempDir()
			m := faultManager(t, walDir, 2, budget)
			created, acked := runToCrash(t, m, name, d, ops)
			verifyRecovery(t, walDir, 2, d, name, created, ops, acked)
		})
	}
}

// TestCrashDuringCheckpoint aims crashes at the checkpoint/rotation machinery:
// with aggressive checkpointing the byte budget trips inside snapshot writes
// and log rewrites as often as inside appends. Rotation must never lose an
// acknowledged op regardless of where it dies — the old generation plus the
// untruncated log always suffices.
func TestCrashDuringCheckpoint(t *testing.T) {
	d := testCrowd(t, 16, crashWorkers, 73)
	extra := testCrowd(t, 16, 3, 79)
	ops := crashScript(d, extra)
	const name = "ckptcrash"

	// Phase 1: clean run with checkpoints every 2 records to find the total
	// WAL byte volume (appends + rewrites all metered by the budget).
	m := faultManager(t, t.TempDir(), 2, -1)
	created, acked := runToCrash(t, m, name, d, ops)
	if !created || countTrue(acked) != len(ops) {
		t.Fatal("clean checkpointing run dropped ops")
	}
	total := m.Stats().WALBytes
	if m.Stats().Checkpoints < 2 {
		t.Fatalf("clean run made %d checkpoints; the test needs rotation", m.Stats().Checkpoints)
	}

	// Phase 2: sample budgets across the whole write volume, plus the exact
	// edges. Step 7 is coprime with the record framing so samples drift
	// through every alignment class.
	budgets := []int64{0, 1, total - 1, total}
	for b := int64(2); b < total-1; b += 7 {
		budgets = append(budgets, b)
	}
	for _, budget := range budgets {
		budget := budget
		t.Run(fmt.Sprintf("budget-%d", budget), func(t *testing.T) {
			t.Parallel()
			walDir := t.TempDir()
			m := faultManager(t, walDir, 2, budget)
			created, acked := runToCrash(t, m, name, d, ops)
			verifyRecovery(t, walDir, 2, d, name, created, ops, acked)
		})
	}
}

// TestCrashDeltaSession covers the delta-ingest path, where coalescing makes
// the exact WAL record sequence racy and bit-identity with a serial replay is
// not the contract. Instead the recovered session must (a) be the exact state
// encoded by its own checkpoint+log — proven by replaying the surviving files
// through a second recovery and comparing bytes — and (b) be certificate-
// equal: settled to the fixed point within the session's own tolerance, with
// every acknowledged answer present.
func TestCrashDeltaSession(t *testing.T) {
	d := testCrowd(t, 24, 6, 83)
	extra := testCrowd(t, 24, 4, 89)
	const name = "delta"
	opts := sessionOpts(crowdval.WithDeltaIngest())

	// Ingest concurrently so the coalescing path (merged batch records) is
	// actually exercised, with validations interleaved.
	runDelta := func(m *Manager) (int64, bool) {
		if err := m.Create(context.Background(), name, d.Answers.Clone(), opts...); err != nil {
			return 0, false
		}
		var ackedAnswers atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < extra.Answers.NumWorkers(); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var answers []crowdval.Answer
				for o := 0; o < extra.Answers.NumObjects(); o++ {
					if l := extra.Answers.Answer(o, w); l >= 0 {
						answers = append(answers, crowdval.Answer{Object: o, Worker: d.Answers.NumWorkers() + w, Label: l})
					}
				}
				if n, err := m.AddAnswers(context.Background(), name, answers); err == nil {
					ackedAnswers.Add(int64(n))
				}
			}(w)
		}
		for o := 0; o < 4; o++ {
			_, _ = m.Submit(context.Background(), name, o, d.Truth[o])
		}
		wg.Wait()
		return ackedAnswers.Add(0), true
	}

	// Clean run to size the budget sweep.
	m := faultManager(t, t.TempDir(), 3, -1)
	if _, ok := runDelta(m); !ok {
		t.Fatal("clean delta run failed to create")
	}
	total := m.Stats().WALBytes

	for _, frac := range []int64{4, 2, 3} {
		budget := total * (frac - 1) / frac
		// Named by fraction, not by budget: concurrent ingests coalesce
		// nondeterministically, so the clean run's byte total varies.
		t.Run(fmt.Sprintf("frac-%d", frac), func(t *testing.T) {
			t.Logf("WAL byte budget %d of a clean run's %d", budget, total)
			walDir := t.TempDir()
			m := faultManager(t, walDir, 3, budget)
			_, created := runDelta(m)
			if !created {
				return
			}
			baseline := d.Answers.AnswerCount()

			m2, err := NewManager(walManagerConfig(t, walDir, 3))
			if err != nil {
				t.Fatal(err)
			}
			report, err := m2.Recover(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(report) != 1 || report[0].Err != nil {
				t.Fatalf("delta recovery report: %+v", report)
			}
			snap := managerSnapshot(t, m2, name)

			// (a) Determinism: a second recovery of the rewritten files
			// reproduces the same bytes.
			m3, err := NewManager(walManagerConfig(t, walDir, 3))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m3.Recover(context.Background()); err != nil {
				t.Fatal(err)
			}
			if snap2 := managerSnapshot(t, m3, name); !bytes.Equal(snap, snap2) {
				t.Fatal("delta recovery is not deterministic across runs")
			}

			// (b) Certificate equality: the recovered session is settled at
			// the fixed point and holds at least the baseline answers (acked
			// extras may or may not be durable depending on the crash point,
			// but the seed crowd always is — it's in the create record).
			sess, err := crowdval.ResumeSession(snap, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := sess.AnswerCount(); got < baseline {
				t.Fatalf("recovered session lost seed answers: %d < %d", got, baseline)
			}
			residual, err := aggregation.FixedPointResidual(context.Background(), sess.ProbabilisticResult(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if residual >= 2*aggregation.DefaultSettleTolerance {
				t.Fatalf("recovered delta session off the fixed point: residual %g", residual)
			}
		})
	}
}
