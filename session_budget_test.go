package crowdval

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestRunWithOracleStopsAtCostBudget: the library loop stops at the monetary
// budget. With θ = 1 and a budget of 3 crowd-answer units, RunWithOracle
// makes exactly three validations and the tracker reads three spent; a
// further submission fails with ErrBudgetExhausted and changes nothing. A
// cancelled submission before the run is refunded.
func TestRunWithOracleStopsAtCostBudget(t *testing.T) {
	d := spammyCrowd(t, 30, 8, 5)
	s, err := NewSession(d.Answers, WithSeed(5), WithCostBudget(CostTracker{Theta: 1, Budget: 3}))
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SubmitValidationContext(cancelled, 0, d.Truth[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v", err)
	}
	if tracker, _ := s.CostBudget(); tracker.Spent != 0 {
		t.Fatalf("cancelled submit left %d validations charged", tracker.Spent)
	}

	n, err := s.RunWithOracle(d.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("RunWithOracle made %d validations, want 3", n)
	}
	tracker, ok := s.CostBudget()
	if !ok || tracker.Spent != 3 {
		t.Fatalf("tracker = %+v (configured %v), want 3 spent", tracker, ok)
	}
	if !s.Done() {
		t.Fatal("Done is false with the monetary budget exhausted")
	}

	object := -1
	for o := 0; o < s.NumObjects(); o++ {
		if !s.Validation().Validated(o) {
			object = o
			break
		}
	}
	before := mustSnapshot(t, s)
	if _, err := s.SubmitValidation(object, d.Truth[object]); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("submit past the budget: %v", err)
	}
	if _, err := s.SubmitValidations(context.Background(),
		[]ValidationInput{{Object: object, Label: d.Truth[object]}}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("batch submit past the budget: %v", err)
	}
	if !bytes.Equal(before, mustSnapshot(t, s)) {
		t.Fatal("refused submissions changed the session state")
	}
}

// TestSelectionRefusedPastCostBudget: once the monetary budget admits no
// further validation, selections fail with ErrBudgetExhausted like they do
// past the effort budget, and refuse before the hybrid roulette draw, so the
// session's pseudo-random state (part of the snapshot) is left as it was.
func TestSelectionRefusedPastCostBudget(t *testing.T) {
	budgets := map[string]Option{
		"cost":   WithCostBudget(CostTracker{Theta: 1, Budget: 2}),
		"effort": WithBudget(2),
	}
	for name, budget := range budgets {
		t.Run(name, func(t *testing.T) {
			d := spammyCrowd(t, 30, 8, 5)
			s, err := NewSession(d.Answers, WithStrategy(StrategyHybrid), WithSeed(5), budget)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := s.RunWithOracle(d.Truth); err != nil || n != 2 {
				t.Fatalf("RunWithOracle = %d, %v; want 2 validations", n, err)
			}
			if !s.Done() {
				t.Fatal("Done is false with the budget exhausted")
			}
			before := mustSnapshot(t, s)
			if object, err := s.NextObject(); !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("NextObject past the budget = %d, %v; want ErrBudgetExhausted", object, err)
			}
			if ranked, err := s.NextObjects(3); !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("NextObjects past the budget = %v, %v; want ErrBudgetExhausted", ranked, err)
			}
			if !bytes.Equal(before, mustSnapshot(t, s)) {
				t.Fatal("refused selections changed the session state")
			}
		})
	}
}

// TestSubmitSingleVsBatchOfOne: a validation submitted on its own and the
// same validation submitted as a batch of one take the same integration
// path. Under the uncertainty strategy (no worker-driven quarantine) two
// sessions driven alike give equal StepInfo values and byte-identical
// snapshots at every step.
func TestSubmitSingleVsBatchOfOne(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d := spammyCrowd(t, 30, 10, seed)
		opts := []Option{
			WithStrategy(StrategyUncertainty), WithSeed(seed), WithBudget(12),
			WithCandidateLimit(6), WithConfirmationCheck(4),
		}
		single, err := NewSession(d.Answers, opts...)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := NewSession(d.Answers, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; !single.Done(); step++ {
			object, err := single.NextObject()
			if err != nil {
				t.Fatal(err)
			}
			if other, err := batch.NextObject(); err != nil || other != object {
				t.Fatalf("seed %d step %d: selections diverged: %d vs %d (%v)", seed, step, object, other, err)
			}
			info, err := single.SubmitValidation(object, d.Truth[object])
			if err != nil {
				t.Fatal(err)
			}
			infos, err := batch.SubmitValidations(context.Background(),
				[]ValidationInput{{Object: object, Label: d.Truth[object]}})
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 1 || !reflect.DeepEqual(info, infos[0]) {
				t.Fatalf("seed %d step %d: StepInfo %+v vs batch-of-one %+v", seed, step, info, infos)
			}
			if !bytes.Equal(mustSnapshot(t, single), mustSnapshot(t, batch)) {
				t.Fatalf("seed %d step %d: snapshots differ", seed, step)
			}
		}
		if !batch.Done() || single.EffortSpent() != 12 {
			t.Fatalf("seed %d: runs ended unevenly (effort %d / %d)", seed, single.EffortSpent(), batch.EffortSpent())
		}
	}
}
