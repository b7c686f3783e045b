package core

import (
	"context"
	"testing"

	"crowdval/internal/guidance"
	"crowdval/internal/metrics"
	"crowdval/internal/model"
	"crowdval/internal/simulation"
)

// TestEngineInteractiveAPI drives the engine through the split
// SelectNextContext/IntegrateContext API used by interactive applications.
func TestEngineInteractiveAPI(t *testing.T) {
	d := smallDataset(t, 12, 21)
	e, err := NewEngineContext(context.Background(), d.Answers, Config{Strategy: &guidance.Baseline{}, Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		object, err := e.SelectNextContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if e.Validation().Validated(object) {
			t.Fatal("selected an already validated object")
		}
		rec, err := e.IntegrateContext(context.Background(), object, d.Truth[object])
		if err != nil {
			t.Fatal(err)
		}
		if rec.Object != object || rec.Iteration != i+1 {
			t.Fatalf("record = %+v", rec)
		}
	}
	if e.EffortSpent() != 6 || !e.Done() {
		t.Fatalf("effort = %d, done = %v", e.EffortSpent(), e.Done())
	}
	if p := metrics.Precision(e.Assignment(), d.Truth); p < 0.5 {
		t.Fatalf("precision = %v", p)
	}
}

func TestEngineIntegrateErrors(t *testing.T) {
	d := smallDataset(t, 6, 22)
	e, err := NewEngineContext(context.Background(), d.Answers, Config{Strategy: &guidance.Baseline{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IntegrateContext(context.Background(), -1, 0); err == nil {
		t.Fatal("negative object accepted")
	}
	if _, err := e.IntegrateContext(context.Background(), 0, model.Label(9)); err == nil {
		t.Fatal("invalid label accepted")
	}
}

func TestEngineReviseValidation(t *testing.T) {
	// Build a consensus crowd so the revision's effect is predictable.
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects: 10, NumWorkers: 6, NumLabels: 2,
		Mix: simulation.WorkerMix{Normal: 1}, NormalAccuracy: 0.95, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineContext(context.Background(), d.Answers, Config{Strategy: &guidance.Baseline{}})
	if err != nil {
		t.Fatal(err)
	}
	// Revising before any validation exists fails.
	if err := e.ReviseValidationContext(context.Background(), 0, 0); err == nil {
		t.Fatal("revision without validation accepted")
	}
	// Integrate a wrong label, then revise it.
	wrong := model.Label(1 - int(d.Truth[0]))
	if _, err := e.IntegrateContext(context.Background(), 0, wrong); err != nil {
		t.Fatal(err)
	}
	if e.Assignment()[0] != wrong {
		t.Fatal("validation not reflected in the assignment")
	}
	if err := e.ReviseValidationContext(context.Background(), 0, model.Label(9)); err == nil {
		t.Fatal("invalid revision label accepted")
	}
	if err := e.ReviseValidationContext(context.Background(), 0, d.Truth[0]); err != nil {
		t.Fatal(err)
	}
	if e.Assignment()[0] != d.Truth[0] {
		t.Fatal("revision not reflected in the assignment")
	}
	if e.EffortSpent() != 2 {
		t.Fatalf("effort = %d, want 2 (validation + revision)", e.EffortSpent())
	}
	// The revision is attached to the last history record.
	history := e.History()
	if len(history) != 1 || len(history[0].RevisedObjects) != 1 || history[0].RevisedObjects[0] != 0 {
		t.Fatalf("history = %+v", history)
	}
}
