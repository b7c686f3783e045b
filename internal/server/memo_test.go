package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"crowdval"
	"crowdval/internal/fault"
	"crowdval/internal/wal"
)

// These tests pin the ranking memo a parked session carries (entry.memo):
// park takes it with the park file, unpark installs it into the resumed
// session, so the first selection after a resume is a memo hit that ranks
// nothing and equals what the session would have answered had it never been
// parked; and no other transition of the entry lets a memo outlive the state
// it describes.

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
		expect(t, m, dB, "delete and recreate")
	})
	t.Run("adoption", func(t *testing.T) {
		m := withWAL(t, nil)
		parkRanked(t, m)
		if err := m.ReplicaReset(ctx, "s", snapB(t), 40); err != nil {
			t.Fatal(err)
		}
		noMemo(t, m, "snapshot adoption")
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
		expect(t, receiver, dA, "handoff (receiver)")
		if err := donor.Create(ctx, "s", dB.Answers, opts...); err != nil {
			t.Fatal(err)
		}
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
		expect(t, m, dA, "heal")
	})
	t.Run("failed-unpark", func(t *testing.T) {
		m := plain(t)
		parkRanked(t, m)
		corruptFile(t, m.parkPath("s"))
		if _, err := m.NextObjects(ctx, "s", 5); err == nil {
			t.Fatal("resume from a corrupt park file succeeded")
		}
		noMemo(t, m, "failed unpark")
	})
}

// TestMemoCountersPerTrigger pins the park/resume counters and the carried
// memo gauge per trigger: parking an unranked session carries nothing, a
// ranked one carries one full ranking, a resume adopts it (no index build),
// a larger k continues it (scoring only what the first ranking left at its
// bound), a state change drops it before the next park, and a delete
// releases it.
func TestMemoCountersPerTrigger(t *testing.T) {
	ctx := context.Background()
	d := testCrowd(t, 120, 12, 81)
	extra := testCrowd(t, 120, 2, 82)
	m, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	type counters struct{ evictions, resumes, memoResumes, carried, builds int64 }
	want := func(what string, c counters) {
		t.Helper()
		st := m.Stats()
		got := counters{st.Evictions, st.Resumes, st.MemoResumes, st.CarriedMemoBytes, st.ScoreIndexBuilds}
		if got != c {
			t.Fatalf("%s: evictions/resumes/memoResumes/carried/builds = %+v, want %+v", what, got, c)
		}
	}
	if err := m.Create(ctx, "a", d.Answers, memoOpts(crowdval.StrategyUncertainty, 3)...); err != nil {
		t.Fatal(err)
	}
	if err := m.Create(ctx, "pad", testCrowd(t, 20, 4, 83).Answers, memoOpts(crowdval.StrategyBaseline, 1)...); err != nil {
		t.Fatal(err)
	}
	want("create parks the unranked session", counters{1, 0, 0, 0, 0})
	managerRanking(t, m, "a", 5)
	want("first ranking resumes without a memo and builds", counters{2, 1, 0, 0, 1})
	first := m.Stats()
	if first.RankCandidatesScored+first.RankCandidatesPruned != 120 || first.RankCandidatesPruned == 0 {
		t.Fatalf("first ranking scored %d and pruned %d of 120 candidates, want some pruned",
			first.RankCandidatesScored, first.RankCandidatesPruned)
	}
	touch(t, m, "pad")
	want("parking the ranked session carries its memo", counters{3, 2, 0, fullMemoBytes, 1})
	managerRanking(t, m, "a", 5)
	want("resume adopts the memo, no build", counters{4, 3, 1, 0, 1})
	managerRanking(t, m, "a", 64)
	// Scoring the candidates the memo holds at their bound needs the
	// scoring index; the memo is continued, not re-ranked: no candidate is
	// pruned anew and none is scored twice.
	want("a larger k continues the resumed memo", counters{4, 3, 1, 0, 2})
	if st := m.Stats(); st.RankCandidatesPruned != first.RankCandidatesPruned || st.RankCandidatesScored > 120 ||
		st.RankCandidatesScored < 64 {
		t.Fatalf("after k = 64: %d scored, %d pruned; want at most 120 scored, at least 64, and %d pruned",
			st.RankCandidatesScored, st.RankCandidatesPruned, first.RankCandidatesPruned)
	}
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
	want("an ingest drops the memo before the park", counters{5, 4, 1, 0, 2})
	managerRanking(t, m, "a", 5)
	want("resume without a memo builds", counters{6, 5, 1, 0, 3})
	touch(t, m, "pad")
	want("parked again with its memo", counters{7, 6, 1, fullMemoBytes, 3})
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	want("delete releases the memo", counters{7, 6, 1, 0, 3})
}
