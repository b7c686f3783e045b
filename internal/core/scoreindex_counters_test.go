package core

import (
	"context"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/guidance"
	"crowdval/internal/model"
	"crowdval/internal/simulation"
	"crowdval/internal/spamdetect"
)

// These tests pin the maintained-view lifecycle of the selection state by
// counting index builds and in-place refills (Engine.Counters, also
// exported as score_index_{builds,patches} on /metrics): a delta-scoring
// session must build its scoring index exactly once and refill it across
// ingests, validations, full-path aggregations and quarantine changes,
// build a new one only when growth changes its shape, and do nothing at all
// for no-op settles and repeated selections.

func deltaScoringEngine(t *testing.T, n int, seed int64) *Engine {
	t.Helper()
	e, err := NewEngineContext(context.Background(), selectKAnswers(t, n, seed), Config{
		Strategy:     &guidance.UncertaintyDriven{},
		Delta:        aggregation.DeltaConfig{Enabled: true},
		DeltaScoring: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func wantStats(t *testing.T, e *Engine, builds, patches int64, what string) {
	t.Helper()
	c := e.Counters()
	b, p := c.ScoreIndexBuilds, c.ScoreIndexPatches
	if b != builds || p != patches {
		t.Fatalf("%s: builds/patches = %d/%d, want %d/%d", what, b, p, builds, patches)
	}
}

// TestScoreIndexBuiltOnceAndPatchedAcrossIngests: the regression test for the
// maintained view. One build at first selection; zero work for repeated
// selections (memoized ranking); one refill — not a rebuild — per settled
// ingest or validation, whether it settled on the delta path or fell back
// to the full path on an oversized frontier.
func TestScoreIndexBuiltOnceAndPatchedAcrossIngests(t *testing.T) {
	ctx := context.Background()
	e := deltaScoringEngine(t, 24, 21)
	wantStats(t, e, 0, 0, "fresh engine")

	first, err := e.SelectNextKContext(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantStats(t, e, 1, 0, "first selection")

	again, err := e.SelectNextKContext(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantStats(t, e, 1, 0, "repeated selection")
	for i := range first {
		if again[i] != first[i] {
			t.Fatalf("repeated ranking diverged: %v vs %v", again, first)
		}
	}

	// A small ingest settles on the delta path; the index is patched in
	// place at the next selection.
	if err := e.AddAnswers(ctx, []model.Answer{{Object: 0, Worker: 1, Label: 1}}); err != nil {
		t.Fatal(err)
	}
	wantStats(t, e, 1, 0, "ingest before selection (patching is lazy)")
	if _, err := e.SelectNextKContext(ctx, 3); err != nil {
		t.Fatal(err)
	}
	wantStats(t, e, 1, 1, "selection after delta ingest")

	// An expert validation flows through the same delta frontier.
	if _, err := e.IntegrateContext(ctx, first[0].Object, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SelectNextKContext(ctx, 3); err != nil {
		t.Fatal(err)
	}
	wantStats(t, e, 1, 2, "selection after validation")

	// A batch dirtying every object exceeds MaxDirtyFraction: the aggregator
	// falls back to the full path, and the index is refilled like after any
	// other successor of the same shape.
	var flood []model.Answer
	for o := 0; o < 24; o++ {
		flood = append(flood, model.Answer{Object: o, Worker: 2, Label: model.Label(o % 2)})
	}
	if err := e.AddAnswers(ctx, flood); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SelectNextKContext(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.DeltaLargeFrontier != 1 {
		t.Fatalf("flood settled with %d full-path fallbacks, want 1", c.DeltaLargeFrontier)
	}
	wantStats(t, e, 1, 3, "selection after full-path fallback")
}

// TestScoreIndexRebuiltOnGrowth: growth changes the index dimensions, so the
// patch must refuse and the engine must rebuild.
func TestScoreIndexRebuiltOnGrowth(t *testing.T) {
	ctx := context.Background()
	e := deltaScoringEngine(t, 16, 22)
	if _, err := e.SelectNextKContext(ctx, 2); err != nil {
		t.Fatal(err)
	}
	wantStats(t, e, 1, 0, "first selection")
	if err := e.AddAnswers(ctx, []model.Answer{{Object: 16, Worker: 0, Label: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SelectNextKContext(ctx, 2); err != nil {
		t.Fatal(err)
	}
	builds := e.Counters().ScoreIndexBuilds
	if builds != 2 {
		t.Fatalf("builds after growth = %d, want 2 (dimension change cannot be patched)", builds)
	}
}

// TestStashOnlyIngestIsNoOp: an ingest whose answers are all stashed by the
// quarantine dirties nothing. The settled state, the maintained index, and
// the memoized rankings must all survive untouched — the fix that
// motivated the no-op settle skip.
func TestStashOnlyIngestIsNoOp(t *testing.T) {
	ctx := context.Background()
	e := deltaScoringEngine(t, 20, 23)

	// Mask a worker, then settle so the engine is at a fixed point again.
	e.quarantine.Mask(e.working, 3)
	res, err := e.aggregate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e.setProbSet(res.ProbSet)

	before := e.ProbSet()
	first, err := e.SelectNextKContext(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	c0 := e.Counters()
	builds0, patches0 := c0.ScoreIndexBuilds, c0.ScoreIndexPatches

	// Every answer in this batch comes from the masked worker: all stashed,
	// frontier empty, fixed point still holds.
	if err := e.AddAnswers(ctx, []model.Answer{
		{Object: 1, Worker: 3, Label: 0},
		{Object: 2, Worker: 3, Label: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if e.ProbSet() != before {
		t.Fatal("stash-only ingest moved the probabilistic state")
	}
	again, err := e.SelectNextKContext(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantStats(t, e, builds0, patches0, "selection after stash-only ingest")
	for i := range first {
		if again[i] != first[i] {
			t.Fatalf("ranking changed across a no-op ingest: %v vs %v", again, first)
		}
	}
}

// TestQuarantineChangeRebuildsIndex: a masking (or restoring) quarantine
// decision rewrites whole workers' answers in the same answer set, so the
// next selection refills the index in place instead of building a new one,
// and the refilled index scores exactly like one built from scratch.
func TestQuarantineChangeRebuildsIndex(t *testing.T) {
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects: 30, NumWorkers: 10, NumLabels: 2,
		Mix:            simulation.WorkerMix{Normal: 0.5, RandomSpammer: 0.3, UniformSpammer: 0.2},
		NormalAccuracy: 0.8,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineContext(context.Background(), d.Answers, Config{
		Strategy:            &guidance.WorkerDriven{},
		Detector:            &spamdetect.Detector{MinValidatedAnswers: 3},
		HandleFaultyWorkers: true,
		Delta:               aggregation.DeltaConfig{Enabled: true},
		DeltaScoring:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		o, err := e.SelectNextContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		c0 := e.Counters()
		rec, err := e.IntegrateContext(context.Background(), o, d.Truth[o])
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.MaskedWorkers)+len(rec.RestoredWorkers) == 0 {
			continue
		}
		if _, err := e.SelectNextContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		wantStats(t, e, c0.ScoreIndexBuilds, c0.ScoreIndexPatches+1, "selection after a quarantine change")
		ix := e.scoreIndex
		fresh := aggregation.NewScoreIndex(e.working, e.probSet, aggregation.EMConfigOf(e.scoringAggregator))
		if ix.ProbSet() != fresh.ProbSet() || ix.TotalUncertainty() != fresh.TotalUncertainty() {
			t.Fatalf("refilled index: H(P) %v, fresh build %v", ix.TotalUncertainty(), fresh.TotalUncertainty())
		}
		for o := 0; o < fresh.NumObjects(); o++ {
			if got, want := ix.ObjectEntropy(o), fresh.ObjectEntropy(o); got != want {
				t.Fatalf("refilled index: H(%d) %v, fresh build %v", o, got, want)
			}
			if got, want := ix.NewHypoScratch().ConditionalUncertainty(o), fresh.NewHypoScratch().ConditionalUncertainty(o); got != want {
				t.Fatalf("refilled index: H(P|%d) %v, fresh build %v", o, got, want)
			}
		}
		return
	}
	t.Fatal("no quarantine change in 30 steps: the pinned crowd (seed 7) must mask or restore a worker")
}
