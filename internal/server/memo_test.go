package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"crowdval"
	"crowdval/internal/fault"
	"crowdval/internal/wal"
)

// These tests pin the ranking memo a parked session carries (entry.memo):
// park takes it with the park file; while the session stays parked, a read
// the memo certifies is answered from it without a resume; unpark installs
// it into the resumed session, so the first selection after a resume is a
// memo hit that ranks nothing; either way the answer equals what the session
// would have answered had it never been parked; and no other transition of
// the entry lets a memo outlive the state it describes.

// memoOpts are the options of the memo tests' sessions: no candidate limit,
// so a memoized ranking holds every unvalidated object of their crowds.
func memoOpts(strategy crowdval.StrategyName, seed int64) []crowdval.Option {
	return []crowdval.Option{crowdval.WithStrategy(strategy), crowdval.WithSeed(seed), crowdval.WithParallelism(1)}
}

// fullMemoBytes is what one memoized ranking of a 120-object test crowd
// holds: every candidate, exact or at its bound, 16 B each.
const fullMemoBytes = 120 * 16

// touch resumes a session without ranking it, which parks every other
// session under a one-byte budget.
func touch(t testing.TB, m *Manager, name string) {
	t.Helper()
	if err := m.View(context.Background(), name, func(*crowdval.Session) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func managerRanking(t testing.TB, m *Manager, name string, k int) []crowdval.ScoredObject {
	t.Helper()
	r, err := m.NextObjects(context.Background(), name, k)
	if err != nil {
		t.Fatalf("NextObjects(%s, %d): %v", name, k, err)
	}
	return r
}

func libraryRanking(t testing.TB, s *crowdval.Session, k int) []crowdval.ScoredObject {
	t.Helper()
	r, err := s.NextObjects(k)
	if err != nil {
		t.Fatalf("NextObjects(%d): %v", k, err)
	}
	return r
}

// sameRanking compares two rankings bit for bit.
func sameRanking(got, want []crowdval.ScoredObject) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Object != want[i].Object || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("entry %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func residentBuilds(t testing.TB, m *Manager, name string) int {
	t.Helper()
	var builds int
	if err := m.View(context.Background(), name, func(s *crowdval.Session) error {
		builds = int(s.Counters().ScoreIndexBuilds)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return builds
}

// TestParkResumeMemoHit: a ranked session parked under a one-byte budget
// answers its first selections after the resume from the carried memo —
// bit for bit the ranking it had before the park and the ranking an unparked
// twin answers — without building a scoring index. The hybrid case carries
// both branches' memos, and its roulette draws stay aligned with the twin's.
func TestParkResumeMemoHit(t *testing.T) {
	for _, strategy := range []crowdval.StrategyName{crowdval.StrategyUncertainty, crowdval.StrategyHybrid} {
		t.Run(string(strategy), func(t *testing.T) {
			ctx := context.Background()
			d := testCrowd(t, 120, 12, 61)
			opts := memoOpts(strategy, 7)
			twin, err := crowdval.NewSession(d.Answers, opts...)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Create(ctx, "s", d.Answers, opts...); err != nil {
				t.Fatal(err)
			}
			if err := m.Create(ctx, "pad", testCrowd(t, 20, 4, 62).Answers, memoOpts(crowdval.StrategyBaseline, 1)...); err != nil {
				t.Fatal(err)
			}
			// A few validations against the crowd's majority raise the
			// hybrid's worker-branch weight, so both branches get drawn.
			for i := 0; i < 3; i++ {
				obj, err := twin.NextObject()
				if err != nil {
					t.Fatal(err)
				}
				ranked, err := m.NextObjects(ctx, "s", 1)
				if err != nil || ranked[0].Object != obj {
					t.Fatalf("step %d: manager selected %v (%v), twin %d", i, ranked, err, obj)
				}
				label := 1 - twin.Result()[obj]
				if _, err := twin.SubmitValidation(obj, label); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Submit(ctx, "s", obj, label); err != nil {
					t.Fatal(err)
				}
			}
			var before [][]crowdval.ScoredObject
			for i := 0; i < 12; i++ {
				got, want := managerRanking(t, m, "s", 64), libraryRanking(t, twin, 64)
				if err := sameRanking(got, want); err != nil {
					t.Fatalf("pre-park ranking %d: %v", i, err)
				}
				before = append(before, got)
			}

			touch(t, m, "pad")
			st := m.Stats()
			if st.CarriedMemoBytes <= 0 {
				t.Fatalf("parking a ranked session carried %d memo bytes", st.CarriedMemoBytes)
			}
			memoResumes := st.MemoResumes

			for _, k := range []int{1, 5, 64, 64, 3} {
				got, want := managerRanking(t, m, "s", k), libraryRanking(t, twin, k)
				if err := sameRanking(got, want); err != nil {
					t.Fatalf("resumed ranking k=%d vs unparked twin: %v", k, err)
				}
				prefix := false
				for _, r := range before {
					prefix = prefix || sameRanking(got, r[:k]) == nil
				}
				if !prefix {
					t.Fatalf("resumed ranking k=%d is no pre-park ranking's prefix: %v", k, got)
				}
			}
			if b := residentBuilds(t, m, "s"); b != 0 {
				t.Fatalf("resumed session built its scoring index %d times, want 0 (memo hits)", b)
			}
			st = m.Stats()
			if st.MemoResumes != memoResumes+1 || st.CarriedMemoBytes != 0 {
				t.Fatalf("after the resume: %d memo resumes (want %d), %d carried bytes (want 0)",
					st.MemoResumes, memoResumes+1, st.CarriedMemoBytes)
			}
		})
	}
}

// TestParkResumeNoStaleMemo: every transition that replaces or discards a
// parked session's state other than unpark — delete and recreate under the
// same name, snapshot adoption, handoff, follower reset, heal, a failed
// unpark — leaves no carried memo behind (the gauge returns to zero) and the
// session's next ranking is a fresh session's ranking of its new state.
func TestParkResumeNoStaleMemo(t *testing.T) {
	ctx := context.Background()
	dA, dB := testCrowd(t, 120, 12, 71), testCrowd(t, 120, 12, 72)
	opts := memoOpts(crowdval.StrategyUncertainty, 5)
	snapB := func(t *testing.T) []byte {
		s, err := crowdval.NewSession(dB.Answers, opts...)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	fresh := func(t *testing.T, d *crowdval.Dataset, k int) []crowdval.ScoredObject {
		s, err := crowdval.NewSession(d.Answers, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return libraryRanking(t, s, k)
	}
	// parkRanked creates the session "s" from dA plus an unranked "pad",
	// ranks "s" and parks it with its memo.
	parkRanked := func(t *testing.T, m *Manager) {
		t.Helper()
		if err := m.Create(ctx, "s", dA.Answers, opts...); err != nil {
			t.Fatal(err)
		}
		if err := m.Create(ctx, "pad", testCrowd(t, 20, 4, 73).Answers, memoOpts(crowdval.StrategyBaseline, 1)...); err != nil {
			t.Fatal(err)
		}
		managerRanking(t, m, "s", 5)
		touch(t, m, "pad")
		if got := m.Stats().CarriedMemoBytes; got != fullMemoBytes {
			t.Fatalf("parked ranked session carries %d memo bytes, want %d", got, fullMemoBytes)
		}
	}
	noMemo := func(t *testing.T, m *Manager, what string) {
		t.Helper()
		if got := m.Stats().CarriedMemoBytes; got != 0 {
			t.Fatalf("%s left %d carried memo bytes", what, got)
		}
	}
	expect := func(t *testing.T, m *Manager, d *crowdval.Dataset, what string) {
		t.Helper()
		if err := sameRanking(managerRanking(t, m, "s", 5), fresh(t, d, 5)); err != nil {
			t.Fatalf("ranking after %s vs a fresh session: %v", what, err)
		}
	}
	// expectParked parks "s" behind "pad" and expects a read of it while it
	// is parked to answer the fresh ranking of d: from the memo only if the
	// memo describes the current state.
	expectParked := func(t *testing.T, m *Manager, d *crowdval.Dataset, what string) {
		t.Helper()
		touch(t, m, "pad")
		for _, info := range m.Sessions() {
			if info.Name == "s" && !info.Parked {
				t.Fatalf("%s: s is not parked behind pad", what)
			}
		}
		expect(t, m, d, what+", read parked")
	}
	plain := func(t *testing.T) *Manager {
		m, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	withWAL := func(t *testing.T, in *fault.Injector) *Manager {
		cfg := walManagerConfig(t, t.TempDir(), -1)
		cfg.MemoryBudget = 1
		cfg.FaultInjector = in
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	t.Run("delete-recreate", func(t *testing.T) {
		m := plain(t)
		parkRanked(t, m)
		if err := m.Delete("s"); err != nil {
			t.Fatal(err)
		}
		noMemo(t, m, "delete")
		if err := m.Create(ctx, "s", dB.Answers, opts...); err != nil {
			t.Fatal(err)
		}
		expectParked(t, m, dB, "delete and recreate")
		expect(t, m, dB, "delete and recreate")
	})
	t.Run("adoption", func(t *testing.T) {
		m := withWAL(t, nil)
		parkRanked(t, m)
		if err := m.ReplicaReset(ctx, "s", snapB(t), 40); err != nil {
			t.Fatal(err)
		}
		noMemo(t, m, "snapshot adoption")
		expectParked(t, m, dB, "snapshot adoption")
		expect(t, m, dB, "snapshot adoption")
	})
	t.Run("follower-reset", func(t *testing.T) {
		// Replication needs a WAL (the adoption subtest resets one): a
		// manager without one refuses the reset and the stream apply, and
		// its parked session stays as it was.
		m := plain(t)
		parkRanked(t, m)
		if err := m.ReplicaReset(ctx, "s", snapB(t), 7); !errors.Is(err, errNoWAL) {
			t.Fatalf("ReplicaReset without a WAL: %v, want errNoWAL", err)
		}
		if err := m.ReplicaApply(ctx, "s", 8, wal.Record{Type: wal.RecSubmit}); !errors.Is(err, errNoWAL) {
			t.Fatalf("ReplicaApply without a WAL: %v, want errNoWAL", err)
		}
		if got := m.Stats().CarriedMemoBytes; got != fullMemoBytes {
			t.Fatalf("refused follower reset left %d carried memo bytes, want %d", got, fullMemoBytes)
		}
		expect(t, m, dA, "refused follower reset")
		expectParked(t, m, dA, "refused follower reset")
	})
	t.Run("handoff", func(t *testing.T) {
		donor, receiver := withWAL(t, nil), withWAL(t, nil)
		parkRanked(t, donor)
		if err := donor.HandoffSession(ctx, "s", func(snap []byte, lsn uint64) error {
			return receiver.ReplicaReset(ctx, "s", snap, lsn)
		}); err != nil {
			t.Fatal(err)
		}
		noMemo(t, donor, "handoff")
		noMemo(t, receiver, "handoff")
		if err := receiver.Create(ctx, "pad", testCrowd(t, 20, 4, 73).Answers, memoOpts(crowdval.StrategyBaseline, 1)...); err != nil {
			t.Fatal(err)
		}
		expectParked(t, receiver, dA, "handoff (receiver)")
		expect(t, receiver, dA, "handoff (receiver)")
		if err := donor.Create(ctx, "s", dB.Answers, opts...); err != nil {
			t.Fatal(err)
		}
		expectParked(t, donor, dB, "handoff and recreate (donor)")
		expect(t, donor, dB, "handoff and recreate (donor)")
	})
	t.Run("heal", func(t *testing.T) {
		in := fault.NewInjector()
		m := withWAL(t, in)
		parkRanked(t, m)
		// Degrade "s" with a failed append (nothing is applied), then park it
		// again with its memo.
		managerRanking(t, m, "s", 5)
		in.Arm(fault.Rule{Op: fault.OpSync, Err: fault.ErrIO})
		if _, err := m.Submit(ctx, "s", 0, 0); err == nil {
			t.Fatal("submit on a failing disk succeeded")
		}
		touch(t, m, "pad")
		in.Clear()
		if healed, err := m.ProbeOnce(ctx); err != nil || healed != 1 {
			t.Fatalf("ProbeOnce: healed %d, %v", healed, err)
		}
		noMemo(t, m, "heal")
		expectParked(t, m, dA, "heal")
		expect(t, m, dA, "heal")
	})
	// A read the memo certifies never touches a corrupt park file; the first
	// operation that needs the state fails the resume with ErrBadSnapshot and
	// drops the memo.
	ops := []struct {
		what string
		do   func(m *Manager) error
	}{
		{"submit", func(m *Manager) error { _, err := m.Submit(ctx, "s", 0, 0); return err }},
		{"ingest", func(m *Manager) error {
			_, err := m.AddAnswers(ctx, "s", []crowdval.Answer{{Object: 0, Worker: 0, Label: 1}})
			return err
		}},
		{"larger-k", func(m *Manager) error { _, err := m.NextObjects(ctx, "s", 100); return err }},
	}
	t.Run("failed-unpark", func(t *testing.T) {
		for _, op := range ops {
			t.Run(op.what, func(t *testing.T) {
				m := plain(t)
				parkRanked(t, m)
				corruptFile(t, m.parkPath("s"))
				expect(t, m, dA, "corrupting the park file")
				if got := m.Stats().CarriedMemoBytes; got != fullMemoBytes {
					t.Fatalf("a memo-answered read left %d carried memo bytes, want %d", got, fullMemoBytes)
				}
				if err := op.do(m); !errors.Is(err, crowdval.ErrBadSnapshot) {
					t.Fatalf("%s on a corrupt park file: %v, want ErrBadSnapshot", op.what, err)
				}
				noMemo(t, m, "failed unpark")
				if _, err := m.NextObjects(ctx, "s", 5); !errors.Is(err, crowdval.ErrBadSnapshot) {
					t.Fatalf("read after the failed unpark: %v, want ErrBadSnapshot", err)
				}
			})
		}
	})
}

// TestMemoCountersPerTrigger pins the park/resume counters, the parked
// selections and the carried memo gauge per trigger: parking an unranked
// session carries nothing, a ranked one carries one full ranking, a read the
// memo certifies is answered while parked (no resume, no eviction), a resume
// adopts the memo (no index build), a larger k continues it (scoring only
// what the first ranking left at its bound), a state change drops it before
// the next park, and a delete releases it.
func TestMemoCountersPerTrigger(t *testing.T) {
	ctx := context.Background()
	d := testCrowd(t, 120, 12, 81)
	extra := testCrowd(t, 120, 2, 82)
	m, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	type counters struct{ evictions, resumes, parked, memoResumes, carried, builds int64 }
	want := func(what string, c counters) {
		t.Helper()
		st := m.Stats()
		got := counters{st.Evictions, st.Resumes, st.ParkedSelections, st.MemoResumes, st.CarriedMemoBytes, st.ScoreIndexBuilds}
		if got != c {
			t.Fatalf("%s: evictions/resumes/parked/memoResumes/carried/builds = %+v, want %+v", what, got, c)
		}
	}
	if err := m.Create(ctx, "a", d.Answers, memoOpts(crowdval.StrategyUncertainty, 3)...); err != nil {
		t.Fatal(err)
	}
	if err := m.Create(ctx, "pad", testCrowd(t, 20, 4, 83).Answers, memoOpts(crowdval.StrategyBaseline, 1)...); err != nil {
		t.Fatal(err)
	}
	want("create parks the unranked session", counters{1, 0, 0, 0, 0, 0})
	managerRanking(t, m, "a", 5)
	want("first ranking resumes without a memo and builds", counters{2, 1, 0, 0, 0, 1})
	first := m.Stats()
	if first.RankCandidatesScored+first.RankCandidatesPruned != 120 || first.RankCandidatesPruned == 0 {
		t.Fatalf("first ranking scored %d and pruned %d of 120 candidates, want some pruned",
			first.RankCandidatesScored, first.RankCandidatesPruned)
	}
	touch(t, m, "pad")
	want("parking the ranked session carries its memo", counters{3, 2, 0, 0, fullMemoBytes, 1})
	managerRanking(t, m, "a", 5)
	managerRanking(t, m, "a", 1)
	want("the memo answers reads while parked", counters{3, 2, 2, 0, fullMemoBytes, 1})
	touch(t, m, "a")
	managerRanking(t, m, "a", 5)
	want("resume adopts the memo, no build", counters{4, 3, 2, 1, 0, 1})
	managerRanking(t, m, "a", 64)
	// Scoring the candidates the memo holds at their bound needs the
	// scoring index; the memo is continued, not re-ranked: no candidate is
	// pruned anew and none is scored twice.
	want("a larger k continues the resumed memo", counters{4, 3, 2, 1, 0, 2})
	if st := m.Stats(); st.RankCandidatesPruned != first.RankCandidatesPruned || st.RankCandidatesScored > 120 ||
		st.RankCandidatesScored < 64 {
		t.Fatalf("after k = 64: %d scored, %d pruned; want at most 120 scored, at least 64, and %d pruned",
			st.RankCandidatesScored, st.RankCandidatesPruned, first.RankCandidatesPruned)
	}
	touch(t, m, "pad")
	want("parked again with the continued memo", counters{5, 4, 2, 1, fullMemoBytes, 2})
	managerRanking(t, m, "a", 64)
	want("the continued memo answers k = 64 while parked", counters{5, 4, 3, 1, fullMemoBytes, 2})
	managerRanking(t, m, "a", 120)
	want("k past the certified prefix resumes", counters{6, 5, 3, 2, 0, 3})
	var answers []crowdval.Answer
	for o := 0; o < 120; o++ {
		if l := extra.Answers.Answer(o, 0); l >= 0 {
			answers = append(answers, crowdval.Answer{Object: o, Worker: 0, Label: 1 - l})
		}
	}
	if _, err := m.AddAnswers(ctx, "a", answers); err != nil {
		t.Fatal(err)
	}
	touch(t, m, "pad")
	want("an ingest drops the memo before the park", counters{7, 6, 3, 2, 0, 3})
	managerRanking(t, m, "a", 5)
	want("resume without a memo builds", counters{8, 7, 3, 2, 0, 4})
	touch(t, m, "pad")
	want("parked again with its memo", counters{9, 8, 3, 2, fullMemoBytes, 4})
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	want("delete releases the memo", counters{9, 8, 3, 2, 0, 4})
}

// parkRankedSession creates "s" from d with opts plus an unranked "pad",
// ranks "s" to k and parks it behind "pad" with its memo.
func parkRankedSession(t testing.TB, m *Manager, d *crowdval.Dataset, opts []crowdval.Option, k int) {
	t.Helper()
	ctx := context.Background()
	if err := m.Create(ctx, "s", d.Answers, opts...); err != nil {
		t.Fatal(err)
	}
	if err := m.Create(ctx, "pad", testCrowd(t, 20, 4, 93).Answers, memoOpts(crowdval.StrategyBaseline, 1)...); err != nil {
		t.Fatal(err)
	}
	managerRanking(t, m, "s", k)
	touch(t, m, "pad")
}

// TestParkedReadAnswersFromMemo: a parked session's reads that its carried
// memo certifies — per session and through the global ranking with parked=1
// — resume nothing, evict nothing and read no park file: they answer with
// the file moved away. Each answer equals the ranking of a session resumed
// from that park file.
func TestParkedReadAnswersFromMemo(t *testing.T) {
	ctx := context.Background()
	d := testCrowd(t, 120, 12, 91)
	opts := append(memoOpts(crowdval.StrategyUncertainty, 4), crowdval.WithCostBudget(crowdval.CostTracker{Theta: 8, Budget: 400}))
	m, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	parkRankedSession(t, m, d, opts, 10)
	snap, err := m.readParkFile("s")
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := crowdval.ResumeSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	aside := filepath.Join(t.TempDir(), "s.park")
	if err := os.Rename(m.parkPath("s"), aside); err != nil {
		t.Fatal(err)
	}

	before := m.Stats()
	for _, k := range []int{1, 5, 10, 3} {
		if err := sameRanking(managerRanking(t, m, "s", k), libraryRanking(t, resumed, k)); err != nil {
			t.Fatalf("parked read k=%d vs the session resumed from its park file: %v", k, err)
		}
	}
	global, err := m.GlobalNext(ctx, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	tracker, _ := resumed.CostBudget()
	var cands []crowdval.GlobalNextCandidate
	for _, so := range libraryRanking(t, resumed, 5) {
		cands = append(cands, crowdval.GlobalNextCandidate{Session: "s", Object: so.Object, Gain: so.Score, GainPerCost: tracker.GainPerCost(so.Score)})
	}
	for _, so := range managerRanking(t, m, "pad", 5) {
		cands = append(cands, crowdval.GlobalNextCandidate{Session: "pad", Object: so.Object, Gain: so.Score,
			GainPerCost: so.Score / crowdval.DefaultExpertCrowdCostRatio})
	}
	if want := crowdval.MergeGlobalNext(cands, 5); fmt.Sprint(global) != fmt.Sprint(want) || global[0].Session != "s" {
		t.Fatalf("global read with parked=1:\n got %+v\nwant %+v, headed by s", global, want)
	}
	after := m.Stats()
	if after.Resumes != before.Resumes || after.Evictions != before.Evictions {
		t.Fatalf("memo-answered reads moved resumes %d -> %d and evictions %d -> %d",
			before.Resumes, after.Resumes, before.Evictions, after.Evictions)
	}
	if got := after.ParkedSelections - before.ParkedSelections; got != 5 {
		t.Fatalf("%d parked selections, want 5 (four reads and one global read)", got)
	}
	if after.CarriedMemoBytes != before.CarriedMemoBytes {
		t.Fatalf("a memo-answered read changed the carried bytes %d -> %d", before.CarriedMemoBytes, after.CarriedMemoBytes)
	}

	// The memo stays with the parked session: once the file is back, the
	// resume adopts it and the resumed session answers the same.
	if err := os.Rename(aside, m.parkPath("s")); err != nil {
		t.Fatal(err)
	}
	touch(t, m, "s")
	if st := m.Stats(); st.MemoResumes != after.MemoResumes+1 {
		t.Fatalf("the resume after memo-answered reads adopted no memo (%d memo resumes)", st.MemoResumes)
	}
	if err := sameRanking(managerRanking(t, m, "s", 10), libraryRanking(t, resumed, 10)); err != nil {
		t.Fatalf("resumed read vs the session resumed from its park file: %v", err)
	}
}

// TestParkedReadSnapshotsLikeResumed: a session read while parked and then
// resumed snapshots byte for byte like one resumed and then read, for every
// strategy whose memo answers parked reads.
func TestParkedReadSnapshotsLikeResumed(t *testing.T) {
	for _, strategy := range []crowdval.StrategyName{crowdval.StrategyUncertainty, crowdval.StrategyWorker, crowdval.StrategyBaseline} {
		t.Run(string(strategy), func(t *testing.T) {
			d := testCrowd(t, 120, 12, 95)
			run := func(readParked bool) ([]crowdval.ScoredObject, []byte, int64) {
				m, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				parkRankedSession(t, m, d, memoOpts(strategy, 6), 5)
				var ranked []crowdval.ScoredObject
				if readParked {
					ranked = managerRanking(t, m, "s", 5)
					touch(t, m, "s")
				} else {
					touch(t, m, "s")
					ranked = managerRanking(t, m, "s", 5)
				}
				snap, err := m.Snapshot(context.Background(), "s")
				if err != nil {
					t.Fatal(err)
				}
				return ranked, snap, m.Stats().ParkedSelections
			}
			parkedRanking, parkedSnap, parkedSel := run(true)
			resumedRanking, resumedSnap, resumedSel := run(false)
			if parkedSel != 1 || resumedSel != 0 {
				t.Fatalf("parked selections %d and %d, want 1 and 0", parkedSel, resumedSel)
			}
			if err := sameRanking(parkedRanking, resumedRanking); err != nil {
				t.Fatalf("read while parked vs read after the resume: %v", err)
			}
			if !bytes.Equal(parkedSnap, resumedSnap) {
				t.Fatal("read-then-resume and resume-then-read snapshots differ")
			}
		})
	}
}

// TestParkedReadResumesWhenMemoCannot: a parked session whose carried memo
// cannot answer a read — a hybrid's, a memo-less session's, one whose next
// selection fails, or a k past the certified prefix — resumes for it, and
// returns exactly the ranking or the error an unparked twin returns.
func TestParkedReadResumesWhenMemoCannot(t *testing.T) {
	ctx := context.Background()
	exhaust := crowdval.CostTracker{Theta: 10, Budget: 5}
	cases := []struct {
		what     string
		opts     []crowdval.Option
		rankK    int  // the ranking taken before the park (0: none)
		exhaust  bool // spend the cost budget after the ranking
		readK    int
		wantMemo bool // whether the park carries a memo
	}{
		{"hybrid", memoOpts(crowdval.StrategyHybrid, 2), 5, false, 5, true},
		{"without-selection-cache", append(memoOpts(crowdval.StrategyUncertainty, 2), crowdval.WithoutSelectionCache()), 5, false, 5, false},
		{"cost-budget-spent", memoOpts(crowdval.StrategyUncertainty, 2), 5, true, 5, true},
		{"effort-budget-spent", append(memoOpts(crowdval.StrategyUncertainty, 2), crowdval.WithBudget(1)), 0, false, 5, false},
		{"goal-reached", append(memoOpts(crowdval.StrategyUncertainty, 2), crowdval.WithUncertaintyGoal(1e9)), 0, false, 5, false},
		{"k-past-certified", memoOpts(crowdval.StrategyUncertainty, 2), 5, false, 100, true},
	}
	for _, tc := range cases {
		t.Run(tc.what, func(t *testing.T) {
			d := testCrowd(t, 120, 12, 97)
			twin, err := crowdval.NewSession(d.Answers, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			// "s" stays resident until the park below: a resume would drop
			// WithoutSelectionCache, which snapshots do not record.
			if err := m.Create(ctx, "pad", testCrowd(t, 20, 4, 93).Answers, memoOpts(crowdval.StrategyBaseline, 1)...); err != nil {
				t.Fatal(err)
			}
			if err := m.Create(ctx, "s", d.Answers, tc.opts...); err != nil {
				t.Fatal(err)
			}
			if tc.rankK == 0 {
				// Spend the effort budget, or leave a finished session as it is.
				if obj, err := twin.NextObject(); err == nil {
					if _, err := twin.SubmitValidation(obj, 0); err != nil {
						t.Fatal(err)
					}
					if _, err := m.Submit(ctx, "s", obj, 0); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				if err := sameRanking(managerRanking(t, m, "s", tc.rankK), libraryRanking(t, twin, tc.rankK)); err != nil {
					t.Fatalf("ranking before the park: %v", err)
				}
			}
			if tc.exhaust {
				twin.SetCostBudget(exhaust)
				if err := m.SetBudget(ctx, "s", exhaust); err != nil {
					t.Fatal(err)
				}
			}
			touch(t, m, "pad")
			before := m.Stats()
			if carried := before.CarriedMemoBytes > 0; carried != tc.wantMemo {
				t.Fatalf("park carried %d memo bytes, want a memo: %v", before.CarriedMemoBytes, tc.wantMemo)
			}

			got, gotErr := m.NextObjects(ctx, "s", tc.readK)
			want, wantErr := twin.NextObjects(tc.readK)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("parked read: error %v, unparked twin: %v", gotErr, wantErr)
			}
			if err := sameRanking(got, want); err != nil {
				t.Fatalf("parked read vs unparked twin: %v", err)
			}
			after := m.Stats()
			if after.Resumes != before.Resumes+1 || after.ParkedSelections != before.ParkedSelections {
				t.Fatalf("resumes %d -> %d and parked selections %d -> %d, want one resume and no parked selection",
					before.Resumes, after.Resumes, before.ParkedSelections, after.ParkedSelections)
			}
		})
	}
}

// TestParkedReadsUnderParkChurn: readers of three sessions run against a
// one-byte budget while another goroutine keeps resuming and parking them,
// so reads land on parked sessions answered from their memos, on resumes and
// on resident sessions. No state changes, so every read must answer the
// session's one ranking. Run with -race.
func TestParkedReadsUnderParkChurn(t *testing.T) {
	ctx := context.Background()
	m, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c"}
	want := make(map[string][]crowdval.ScoredObject)
	for i, name := range names {
		d := testCrowd(t, 60, 8, int64(100+i))
		opts := memoOpts(crowdval.StrategyUncertainty, int64(i))
		twin, err := crowdval.NewSession(d.Answers, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = libraryRanking(t, twin, 5)
		if err := m.Create(ctx, name, d.Answers, opts...); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.View(ctx, names[i%len(names)], func(*crowdval.Session) error { return nil }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				name := names[(r+i)%len(names)]
				got, err := m.NextObjects(ctx, name, 1+i%5)
				if err != nil {
					t.Error(err)
					return
				}
				if err := sameRanking(got, want[name][:len(got)]); err != nil || len(got) != 1+i%5 {
					t.Errorf("read %d of %s: %v (%d entries)", i, name, err, len(got))
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if st := m.Stats(); st.ParkedSelections == 0 || st.Resumes == 0 {
		t.Fatalf("%d parked selections and %d resumes: the churn never mixed the paths", st.ParkedSelections, st.Resumes)
	}
}
