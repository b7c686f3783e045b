package crowdval

import (
	"context"
	"math"
	"testing"

	"crowdval/internal/snapshot"
)

// TestRankingMemoCarriesEveryRole: a memo taken from a session and adopted
// by the session resumed from the snapshot taken with it serves that
// session's next selections — bit for bit an unparked twin's — without
// building a scoring index, for the strategy of a plain session and for both
// branches of a hybrid one.
func TestRankingMemoCarriesEveryRole(t *testing.T) {
	d := spammyCrowd(t, 90, 10, 17)
	for _, strategy := range []StrategyName{StrategyUncertainty, StrategyWorker, StrategyBaseline, StrategyHybrid} {
		t.Run(string(strategy), func(t *testing.T) {
			opts := []Option{WithStrategy(strategy), WithSeed(4), WithParallelism(1)}
			parked, err := NewSession(d.Answers, opts...)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewSession(d.Answers, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if strategy == StrategyHybrid {
				// Both branches are drawn before the park and after the
				// resume; a branch whose memo was not carried would build
				// the scoring index.
				parked, twin = withHybridWeight(t, parked, 0.5), withHybridWeight(t, twin, 0.5)
			}
			for i := 0; i < 10; i++ {
				got, want := mustNextObjects(t, parked, 64), mustNextObjects(t, twin, 64)
				sameScored(t, got, want, "pre-park")
			}
			snap, err := parked.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			memo := parked.TakeRankingMemo()
			if memo.Bytes() <= 0 {
				t.Fatalf("memo of a ranked session holds %d bytes", memo.Bytes())
			}
			if again := parked.TakeRankingMemo(); again.memo != nil {
				t.Fatal("a taken memo stayed with the session")
			}
			resumed, err := ResumeSession(snap)
			if err != nil {
				t.Fatal(err)
			}
			if !resumed.AdoptRankingMemo(memo) {
				t.Fatal("resumed session refused the memo taken with its snapshot")
			}
			for i := 0; i < 10; i++ {
				k := 1 + 7*i
				sameScored(t, mustNextObjects(t, resumed, k), mustNextObjects(t, twin, k), "resumed")
			}
			if builds := resumed.Counters().ScoreIndexBuilds; builds != 0 {
				t.Fatalf("resumed session built its scoring index %d times, want 0", builds)
			}
		})
	}
}

// withHybridWeight resumes a hybrid session from its snapshot with the
// hybrid weight set to w.
func withHybridWeight(t *testing.T, s *Session, w float64) *Session {
	t.Helper()
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	st.HybridWeight = w
	resumed, err := ResumeSession(snapshot.Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	return resumed
}

// TestRankingMemoRefusesOtherStates: a memo is refused by a session whose
// state sample or scoring setup differs from the one it was taken from, and
// the empty memo is refused everywhere.
func TestRankingMemoRefusesOtherStates(t *testing.T) {
	d := spammyCrowd(t, 90, 10, 19)
	opts := []Option{WithStrategy(StrategyUncertainty), WithSeed(2), WithParallelism(1)}
	s, err := NewSession(d.Answers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	mustNextObjects(t, s, 5)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	memo := s.TakeRankingMemo()

	if s2, _ := ResumeSession(snap); s2.AdoptRankingMemo(RankingMemo{}) {
		t.Fatal("the empty memo was adopted")
	}
	moved, _ := ResumeSession(snap)
	if err := moved.AddAnswers(context.Background(), []Answer{{Object: 0, Worker: 9, Label: 1 - moved.Result()[0]}}); err != nil {
		t.Fatal(err)
	}
	if moved.AdoptRankingMemo(memo) {
		t.Fatal("a session whose answers moved adopted the memo")
	}
	if limited, _ := ResumeSession(snap, WithCandidateLimit(8)); limited.AdoptRankingMemo(memo) {
		t.Fatal("a session with another candidate limit adopted the memo")
	}
	if exact, _ := ResumeSession(snap, WithExact()); exact.AdoptRankingMemo(memo) {
		t.Fatal("an exact-scoring session adopted a delta-scoring memo")
	}
	if uncached, _ := ResumeSession(snap, WithoutSelectionCache()); uncached.AdoptRankingMemo(memo) {
		t.Fatal("a session without the selection cache adopted the memo")
	}
	if ok, _ := ResumeSession(snap); !ok.AdoptRankingMemo(memo) {
		t.Fatal("the matching session refused the memo")
	}
}

func mustNextObjects(t *testing.T, s *Session, k int) []ScoredObject {
	t.Helper()
	r, err := s.NextObjects(k)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sameScored(t *testing.T, got, want []ScoredObject, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Object != want[i].Object || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: entry %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}
