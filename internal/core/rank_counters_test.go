package core

import (
	"context"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/guidance"
	"crowdval/internal/model"
	"crowdval/internal/simulation"
)

// These tests pin the early-stopping ranking's work per trigger by counting
// the candidates it scored exactly and those it left at their bound
// (Engine.Counters, also exported as rank_candidates_{scored,pruned} on
// /metrics): a fresh ranking scores a few candidates and leaves the rest at
// their bound, a larger k on the same state scores only what it adds, a
// memoized prefix scores nothing, and a state change ranks afresh.

// rankCrowd is a binary crowd of the serving shape, 400 objects answered
// five times each from a pool of 40 workers, aggregated by the engine.
func rankCrowd(t *testing.T) *model.AnswerSet {
	t.Helper()
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects: 400, NumWorkers: 40, NumLabels: 2, AnswersPerObject: 5,
		NormalAccuracy: 0.7, Mix: simulation.WorkerMix{Normal: 0.75, RandomSpammer: 0.25}, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d.Answers
}

func wantRankStats(t *testing.T, e *Engine, scored, pruned int64, what string) {
	t.Helper()
	c := e.Counters()
	s, p := c.RankCandidatesScored, c.RankCandidatesPruned
	if s != scored || p != pruned {
		t.Fatalf("%s: scored/pruned = %d/%d, want %d/%d", what, s, p, scored, pruned)
	}
}

// TestRankCountersPerTrigger pins the counters' trajectory with serial
// scoring of 32 candidates: k = 1, then 5 and 10 on the same state, a
// repeat, then a validation that moves the state.
func TestRankCountersPerTrigger(t *testing.T) {
	e, err := NewEngineContext(context.Background(), rankCrowd(t), Config{
		Strategy:     &guidance.UncertaintyDriven{CandidateLimit: 32},
		Delta:        aggregation.DeltaConfig{Enabled: true},
		DeltaScoring: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRankStats(t, e, 0, 0, "fresh engine")
	first, err := e.SelectNextKContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantRankStats(t, e, 2, 30, "k = 1 ranks afresh")
	if _, err := e.SelectNextKContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	wantRankStats(t, e, 7, 30, "k = 5 continues the memo")
	if _, err := e.SelectNextKContext(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	wantRankStats(t, e, 11, 30, "k = 10 continues the memo")
	if _, err := e.SelectNextKContext(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	wantRankStats(t, e, 11, 30, "a certified prefix is a memo hit")
	if _, err := e.IntegrateContext(context.Background(), first[0].Object, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SelectNextKContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	wantRankStats(t, e, 16, 57, "a state change ranks afresh")
}

// TestRankCountersWithoutBounds: scorers without a bound — the exact
// scorer, the worker-driven strategy, a three-label crowd — score every
// candidate and prune none.
func TestRankCountersWithoutBounds(t *testing.T) {
	ternary, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects: 200, NumWorkers: 40, NumLabels: 3, AnswersPerObject: 5,
		NormalAccuracy: 0.7, Mix: simulation.WorkerMix{Normal: 0.75, RandomSpammer: 0.25}, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		answers *model.AnswerSet
		cfg     Config
	}{
		{"exact scorer", rankCrowd(t), Config{Strategy: &guidance.UncertaintyDriven{CandidateLimit: 8}}},
		{"worker-driven", rankCrowd(t), Config{Strategy: &guidance.WorkerDriven{CandidateLimit: 8}, DeltaScoring: true}},
		{"three labels", ternary.Answers, Config{Strategy: &guidance.UncertaintyDriven{CandidateLimit: 8}, DeltaScoring: true}},
	} {
		e, err := NewEngineContext(context.Background(), c.answers, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.SelectNextKContext(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		if got := e.Counters(); got.RankCandidatesScored != 8 || got.RankCandidatesPruned != 0 {
			t.Fatalf("%s: scored/pruned = %d/%d, want 8/0", c.name, got.RankCandidatesScored, got.RankCandidatesPruned)
		}
	}
}
