package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/guidance"
	"crowdval/internal/model"
	"crowdval/internal/simulation"
	"crowdval/internal/snapshot"
)

func scoringTestAnswers(t *testing.T) *model.AnswerSet {
	t.Helper()
	a := model.MustNewAnswerSet(6, 4, 2)
	for o := 0; o < 6; o++ {
		for w := 0; w < 4; w++ {
			if err := a.SetAnswer(o, w, model.Label((o+w)%2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

// TestParallelScoringGetsSerialVariants asserts that enabling parallel
// candidate scoring hands the guidance step serial copies of the aggregator
// and detector, while the engine's own conclude step keeps the sharded
// originals — the guard against nesting GOMAXPROCS-wide shards inside every
// scoring goroutine.
func TestParallelScoringGetsSerialVariants(t *testing.T) {
	answers := scoringTestAnswers(t)

	e, err := NewEngineContext(context.Background(), answers, Config{Parallel: true, MaxParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p := e.scoringAggregator.Config.Parallelism; p != 1 {
		t.Fatalf("scoring aggregator parallelism = %d, want 1", p)
	}
	if p := e.aggregator.Config.Parallelism; p != 4 {
		t.Fatalf("conclude-step aggregator parallelism = %d, want 4", p)
	}
	if e.scoringAggregator == e.aggregator {
		t.Fatal("scoring aggregator must be a distinct serial copy")
	}
	if e.scoringDetector.Parallelism != 1 {
		t.Fatalf("scoring detector parallelism = %d, want 1", e.scoringDetector.Parallelism)
	}
	if e.detector.Parallelism != 4 {
		t.Fatalf("conclude-step detector parallelism = %d, want 4", e.detector.Parallelism)
	}

}

// TestSerialScoringSharesAggregator asserts that without Parallel the
// guidance step uses the engine's own (possibly sharded) instances — serial
// scoring cannot nest, and sharded per-candidate aggregation is desirable.
func TestSerialScoringSharesAggregator(t *testing.T) {
	answers := scoringTestAnswers(t)
	e, err := NewEngineContext(context.Background(), answers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.scoringAggregator != e.aggregator {
		t.Fatal("serial scoring should share the engine aggregator")
	}
	if e.scoringDetector != e.detector {
		t.Fatal("serial scoring should share the engine detector")
	}
}

// sameRanking fails the test unless two rankings agree entry for entry, in
// object and in score bits.
func sameRanking(t *testing.T, got, want []guidance.ScoredObject, what string) {
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

func mustSelectK(t *testing.T, e *Engine, k int) []guidance.ScoredObject {
	t.Helper()
	ranked, err := e.SelectNextKContext(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	return ranked
}

// scoringCrowd generates a binary crowd with random and uniform spammers.
func scoringCrowd(t *testing.T, objects, workers int, seed int64) *simulation.Dataset {
	t.Helper()
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects: objects, NumWorkers: workers, NumLabels: 2, AnswersPerObject: 5,
		Mix:            simulation.WorkerMix{Normal: 0.6, RandomSpammer: 0.25, UniformSpammer: 0.15},
		NormalAccuracy: 0.75, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestParallelScoringMatchesSerial: Config.Parallel, the one way to score
// candidates in parallel, ranks bit for bit like serial scoring. For the
// hybrid strategy, with the exact and with the delta scorer, both branches
// rank alike over a history of validations. For the uncertainty strategy's
// early-stopped delta rankings — k = 1, 5, 10 and 64 on fresh engines and in
// sequence on one state, with a candidate limit of 64 and without one, with
// the maintained view and without the selection cache — the rankings agree
// before and after a validation and on an engine restored from a park with
// its ranking memo, and fresh rankings below k = 64 still prune.
func TestParallelScoringMatchesSerial(t *testing.T) {
	t.Run("hybrid", func(t *testing.T) {
		d := scoringCrowd(t, 60, 12, 1)
		for _, deltaScoring := range []bool{false, true} {
			build := func(parallel bool) *Engine {
				h := &guidance.Hybrid{
					Uncertainty: &guidance.UncertaintyDriven{},
					Worker:      &guidance.WorkerDriven{},
					Rand:        rand.New(rand.NewSource(3)),
				}
				h.SetWeight(0.5)
				cfg := Config{Strategy: h, MaxParallelism: 1, HandleFaultyWorkers: true,
					Delta: aggregation.DeltaConfig{Enabled: deltaScoring}, DeltaScoring: deltaScoring}
				if parallel {
					cfg.Parallel, cfg.MaxParallelism = true, 4
				}
				e, err := NewEngineContext(context.Background(), d.Answers, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			serial, parallel := build(false), build(true)
			for step := 0; step < 6; step++ {
				want := mustSelectK(t, serial, 6)
				sameRanking(t, mustSelectK(t, parallel, 6), want, fmt.Sprintf("delta=%v step %d", deltaScoring, step))
				top := want[0].Object
				for _, e := range []*Engine{serial, parallel} {
					if _, err := e.IntegrateContext(context.Background(), top, d.Truth[top]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	})

	d := scoringCrowd(t, 600, 40, 41)
	ks := []int{1, 5, 10, 64}
	for _, limit := range []int{64, 0} {
		for _, uncached := range []bool{false, true} {
			cfg := func(parallel bool) Config {
				c := Config{Strategy: &guidance.UncertaintyDriven{CandidateLimit: limit}, MaxParallelism: 1,
					Delta: aggregation.DeltaConfig{Enabled: true}, DeltaScoring: true, DisableSelectionCache: uncached}
				if parallel {
					c.Parallel, c.MaxParallelism = true, 2
				}
				return c
			}
			build := func(parallel bool) *Engine {
				e, err := NewEngineContext(context.Background(), d.Answers, cfg(parallel))
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			t.Run(fmt.Sprintf("early-stop/limit-%d/uncached-%v", limit, uncached), func(t *testing.T) {
				for _, k := range ks {
					serial, parallel := build(false), build(true)
					sameRanking(t, mustSelectK(t, parallel, k), mustSelectK(t, serial, k), "fresh engine")
					if pruned := parallel.Counters().RankCandidatesPruned; k < 64 && pruned == 0 {
						t.Fatalf("k = %d: the parallel ranking scored every candidate", k)
					}
				}
				serial, parallel := build(false), build(true)
				sequence := func(e *Engine, what string) {
					t.Helper()
					for _, k := range ks {
						sameRanking(t, mustSelectK(t, e, k), mustSelectK(t, serial, k), what)
					}
				}
				sequence(parallel, "sequence")
				top := mustSelectK(t, serial, 1)[0].Object
				for _, e := range []*Engine{serial, parallel} {
					if _, err := e.IntegrateContext(context.Background(), top, d.Truth[top]); err != nil {
						t.Fatal(err)
					}
					mustSelectK(t, e, 1)
				}
				st := &snapshot.State{}
				parallel.Snapshot(st, func() uint64 { return 0 })
				memo := parallel.TakeRankingMemo()
				decoded, err := snapshot.Decode(snapshot.Encode(st))
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := RestoreEngine(decoded, cfg(true))
				if err != nil {
					t.Fatal(err)
				}
				if adopted := resumed.InstallRankingMemo(memo); adopted == uncached {
					t.Fatalf("memo adopted = %v, want %v", adopted, !uncached)
				}
				sequence(resumed, "resumed park")
				sequence(parallel, "sequence after a validation")
			})
		}
	}
}
