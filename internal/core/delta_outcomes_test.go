package core

import (
	"context"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/guidance"
	"crowdval/internal/model"
)

// These tests pin the delta-path outcome counters (Engine.Counters,
// exported as crowdval_delta_{accepted,stalled,large_frontier}_total
// on /metrics) per trigger, in the style of the score-index counter tests:
// each mutation counts exactly one outcome, the one its frontier calls for,
// and no-op settles and selections count nothing.

// wantOutcomes compares the engine's three outcome counters with want's.
func wantOutcomes(t *testing.T, e *Engine, want Counters, what string) {
	t.Helper()
	c := e.Counters()
	got := Counters{DeltaAccepted: c.DeltaAccepted, DeltaStalled: c.DeltaStalled, DeltaLargeFrontier: c.DeltaLargeFrontier}
	if got != want {
		t.Fatalf("%s: delta outcomes %+v, want %+v", what, got, want)
	}
}

// TestDeltaOutcomeCountersPerTrigger: validations and small ingests are
// accepted on the frontier path, growth too (the engine grows its warm
// state along), a batch dirtying every object falls back on its large
// frontier, and selections count nothing.
func TestDeltaOutcomeCountersPerTrigger(t *testing.T) {
	ctx := context.Background()
	e := deltaScoringEngine(t, 24, 21)
	wantOutcomes(t, e, Counters{}, "fresh engine (the initial aggregation is not a delta call)")

	first, err := e.SelectNextKContext(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantOutcomes(t, e, Counters{}, "selection")

	if _, err := e.IntegrateContext(ctx, first[0].Object, 0); err != nil {
		t.Fatal(err)
	}
	wantOutcomes(t, e, Counters{DeltaAccepted: 1}, "validation")

	if err := e.AddAnswers(ctx, []model.Answer{{Object: 1, Worker: 1, Label: 1}}); err != nil {
		t.Fatal(err)
	}
	wantOutcomes(t, e, Counters{DeltaAccepted: 2}, "small ingest")

	if err := e.AddAnswers(ctx, []model.Answer{{Object: 24, Worker: 4, Label: 0}}); err != nil {
		t.Fatal(err)
	}
	wantOutcomes(t, e, Counters{DeltaAccepted: 3}, "growth by one object and one worker")

	var flood []model.Answer
	for o := 0; o < 25; o++ {
		flood = append(flood, model.Answer{Object: o, Worker: 2, Label: model.Label(o % 2)})
	}
	if err := e.AddAnswers(ctx, flood); err != nil {
		t.Fatal(err)
	}
	wantOutcomes(t, e, Counters{DeltaAccepted: 3, DeltaLargeFrontier: 1}, "ingest dirtying every object")

	if _, err := e.SelectNextKContext(ctx, 3); err != nil {
		t.Fatal(err)
	}
	wantOutcomes(t, e, Counters{DeltaAccepted: 3, DeltaLargeFrontier: 1}, "selection after the fallback")
}

// TestDeltaOutcomeCountersStall: with the frontier phase capped at one
// iteration, evidence that needs more than one counts a stall, and the
// settle phase still certifies the result.
func TestDeltaOutcomeCountersStall(t *testing.T) {
	e, err := NewEngineContext(context.Background(), selectKAnswers(t, 40, 23), Config{
		Strategy: &guidance.UncertaintyDriven{},
		Delta:    aggregation.DeltaConfig{Enabled: true, MaxDeltaIterations: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var contrarian []model.Answer
	for o := 0; o < 6; o++ {
		contrarian = append(contrarian, model.Answer{Object: o, Worker: 0, Label: model.Label(1 - o%2)})
	}
	if err := e.AddAnswers(context.Background(), contrarian); err != nil {
		t.Fatal(err)
	}
	wantOutcomes(t, e, Counters{DeltaStalled: 1}, "contrarian ingest under a one-iteration cap")
	if n := e.Counters().DeltaIterations; n != 1 {
		t.Fatalf("stalled frontier phase ran %d iterations, want the cap of 1", n)
	}
	residual, err := aggregation.FixedPointResidual(context.Background(), e.ProbSet(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if residual >= 2*aggregation.DefaultSettleTolerance {
		t.Fatalf("stalled result is not settled: residual %g", residual)
	}
}
