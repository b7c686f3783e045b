package crowdval

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"crowdval/internal/aggregation"
)

// fullScanRanking is the early stop's reference: every candidate of the
// session's current state scored with the hypothetical scorer, ranked by
// score descending with ties toward the smaller object, cut to k. The
// candidates are the limit unvalidated objects of highest entropy (ties
// toward the smaller object), or all of them for limit 0.
func fullScanRanking(t *testing.T, s *Session, limit, k int) []ScoredObject {
	t.Helper()
	p := s.engine.ProbSet()
	ix := aggregation.NewScoreIndex(s.engine.Answers(), p, aggregation.EMConfig{})
	sc := ix.NewHypoScratch()
	candidates := p.Validation.UnvalidatedObjects()
	if limit > 0 && len(candidates) > limit {
		slices.SortStableFunc(candidates, func(a, b int) int {
			return cmp.Compare(ix.ObjectEntropy(b), ix.ObjectEntropy(a))
		})
		candidates = candidates[:limit]
	}
	ranked := make([]ScoredObject, len(candidates))
	for i, o := range candidates {
		ranked[i] = ScoredObject{Object: o, Score: ix.TotalUncertainty() - sc.ConditionalUncertainty(o)}
	}
	slices.SortFunc(ranked, func(a, b ScoredObject) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.Object, b.Object)
	})
	return ranked[:min(k, len(ranked))]
}

// sameBits reports the first entry at which two rankings differ in object
// or score bits.
func sameBits(t *testing.T, got, want []ScoredObject, what string) {
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

// TestEarlyStopMatchesFullScan: a ranking that scores candidates in bound
// order and stops early returns, bit for bit, the ranking of scoring every
// candidate — for k = 1, 5, 10 and 64 alone and in the sequence 1 → 5 → 10
// → 64 on one state (which continues the memoized ranking), before and
// after a validation moves the state, with the maintained view and without
// the selection cache, and on a session resumed from a park with its ranking
// memo. TestParallelScoringMatchesSerial in internal/core checks the same
// rankings with parallel candidate scoring.
func TestEarlyStopMatchesFullScan(t *testing.T) {
	d, err := GenerateCrowd(CrowdConfig{
		NumObjects: 600, NumWorkers: 40, NumLabels: 2, AnswersPerObject: 5,
		Mix:            WorkerMix{Normal: 0.6, RandomSpammer: 0.25, UniformSpammer: 0.15},
		NormalAccuracy: 0.75, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{1, 5, 10, 64}
	for _, limit := range []int{64, 0} {
		for _, mode := range []struct {
			name     string
			opts     []Option
			uncached bool
		}{
			{"serial", []Option{WithParallelism(1)}, false},
			{"serial-uncached", []Option{WithParallelism(1), WithoutSelectionCache()}, true},
		} {
			opts := append([]Option{WithStrategy(StrategyUncertainty), WithCandidateLimit(limit), WithSeed(3)}, mode.opts...)
			name := mode.name
			if limit == 0 {
				name += "/all-candidates"
			}
			t.Run(name, func(t *testing.T) {
				for _, k := range ks {
					s, err := NewSession(d.Answers, opts...)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, mustNextObjects(t, s, k), fullScanRanking(t, s, limit, k), "fresh session")
					if pruned := s.Counters().RankCandidatesPruned; k < 64 && pruned == 0 {
						t.Fatalf("k = %d: the ranking scored every candidate", k)
					}
				}
				s, err := NewSession(d.Answers, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sequence := func(s *Session, what string) {
					t.Helper()
					for _, k := range ks {
						sameBits(t, mustNextObjects(t, s, k), fullScanRanking(t, s, limit, k), what)
					}
				}
				sequence(s, "sequence")
				top := mustNextObjects(t, s, 1)[0].Object
				if _, err := s.SubmitValidation(top, d.Truth[top]); err != nil {
					t.Fatal(err)
				}
				mustNextObjects(t, s, 1)
				snap, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				memo := s.TakeRankingMemo()
				resumed, err := ResumeSession(snap, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if adopted := resumed.AdoptRankingMemo(memo); adopted == mode.uncached {
					t.Fatalf("memo adopted = %v, want %v", adopted, !mode.uncached)
				}
				sequence(resumed, "resumed park")
				sequence(s, "sequence after a validation")
			})
		}
	}
}
