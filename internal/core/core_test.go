package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"crowdval/internal/guidance"
	"crowdval/internal/metrics"
	"crowdval/internal/model"
	"crowdval/internal/simulation"
	"crowdval/internal/spamdetect"
)

// smallDataset generates a small synthetic crowd for engine tests.
func smallDataset(t *testing.T, objects int, seed int64) *simulation.Dataset {
	t.Helper()
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects:     objects,
		NumWorkers:     12,
		NumLabels:      2,
		NormalAccuracy: 0.7,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewEngineInitialAggregation(t *testing.T) {
	d := smallDataset(t, 20, 1)
	e, err := NewEngineContext(context.Background(), d.Answers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Iteration() != 0 || e.EffortSpent() != 0 {
		t.Fatal("fresh engine should have no effort spent")
	}
	if err := e.ProbSet().Validate(); err != nil {
		t.Fatalf("initial probabilistic answer set invalid: %v", err)
	}
	if len(e.Assignment()) != 20 {
		t.Fatal("initial assignment missing")
	}
	if e.Uncertainty() < 0 {
		t.Fatal("negative uncertainty")
	}
	if _, err := NewEngineContext(context.Background(), nil, Config{}); err == nil {
		t.Fatal("nil answer set accepted")
	}
}

func TestEngineStepWithOracleExpert(t *testing.T) {
	d := smallDataset(t, 15, 2)
	e, err := NewEngineContext(context.Background(), d.Answers, Config{
		Strategy: &guidance.Baseline{},
	})
	if err != nil {
		t.Fatal(err)
	}
	expert := &simulation.OracleExpert{Truth: d.Truth}
	rec, err := e.StepContext(context.Background(), expert)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Iteration != 1 || rec.Object < 0 || rec.Object >= 15 {
		t.Fatalf("unexpected record %+v", rec)
	}
	if rec.Label != d.Truth[rec.Object] {
		t.Fatal("oracle expert label mismatch")
	}
	if e.EffortSpent() != 1 || e.Iteration() != 1 {
		t.Fatal("effort bookkeeping wrong")
	}
	if !e.Validation().Validated(rec.Object) {
		t.Fatal("validation not recorded")
	}
	if got := e.Assignment()[rec.Object]; got != d.Truth[rec.Object] {
		t.Fatal("validated object not pinned in the assignment")
	}
	if len(e.History()) != 1 {
		t.Fatal("history not recorded")
	}
	if rec.ErrorRate < 0 || rec.ErrorRate > 1 {
		t.Fatalf("error rate out of range: %v", rec.ErrorRate)
	}
	// The same object is never selected twice.
	seen := map[int]bool{rec.Object: true}
	for i := 0; i < 5; i++ {
		r, err := e.StepContext(context.Background(), expert)
		if err != nil {
			t.Fatal(err)
		}
		if seen[r.Object] {
			t.Fatalf("object %d selected twice", r.Object)
		}
		seen[r.Object] = true
	}
}

func TestEngineStepErrors(t *testing.T) {
	d := smallDataset(t, 5, 3)
	e, err := NewEngineContext(context.Background(), d.Answers, Config{Strategy: &guidance.Random{Rand: rand.New(rand.NewSource(1))}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepContext(context.Background(), nil); err == nil {
		t.Fatal("nil expert accepted")
	}
	badExpert := ExpertFunc(func(object int) (model.Label, error) {
		return model.NoLabel, fmt.Errorf("boom")
	})
	if _, err := e.StepContext(context.Background(), badExpert); err == nil {
		t.Fatal("expert error not propagated")
	}
	invalidExpert := ExpertFunc(func(object int) (model.Label, error) {
		return model.Label(99), nil
	})
	if _, err := e.StepContext(context.Background(), invalidExpert); err == nil {
		t.Fatal("invalid expert label accepted")
	}
	// Exhaust all objects, then stepping must fail.
	oracle := &simulation.OracleExpert{Truth: d.Truth}
	for i := 0; i < 5; i++ {
		if _, err := e.StepContext(context.Background(), oracle); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.StepContext(context.Background(), oracle); err == nil {
		t.Fatal("step on fully validated answer set accepted")
	}
}

func TestEngineRunBudgetAndGoal(t *testing.T) {
	d := smallDataset(t, 20, 4)
	e, err := NewEngineContext(context.Background(), d.Answers, Config{
		Strategy: &guidance.Baseline{},
		Budget:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	summary, err := e.RunContext(context.Background(), &simulation.OracleExpert{Truth: d.Truth}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if summary.EffortSpent != 5 || summary.Iterations != 5 {
		t.Fatalf("summary = %+v, want 5 iterations", summary)
	}
	if summary.EffortRatio != 0.25 {
		t.Fatalf("effort ratio = %v", summary.EffortRatio)
	}
	if len(summary.History) != 5 {
		t.Fatal("history length mismatch")
	}

	// A goal stops the run before the budget is exhausted.
	e2, err := NewEngineContext(context.Background(), d.Answers, Config{
		Strategy: &guidance.Baseline{},
		Budget:   20,
		Goal:     UncertaintyBelow(1e9), // trivially satisfied
	})
	if err != nil {
		t.Fatal(err)
	}
	summary2, err := e2.RunContext(context.Background(), &simulation.OracleExpert{Truth: d.Truth}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if summary2.Iterations != 0 || !summary2.GoalReached {
		t.Fatalf("goal should stop the run immediately: %+v", summary2)
	}

	// The onStep callback can stop the run.
	e3, err := NewEngineContext(context.Background(), d.Answers, Config{Strategy: &guidance.Baseline{}})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	summary3, err := e3.RunContext(context.Background(), &simulation.OracleExpert{Truth: d.Truth}, func(IterationRecord) bool {
		steps++
		return steps < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if summary3.Iterations != 3 {
		t.Fatalf("callback should stop after 3 steps, got %d", summary3.Iterations)
	}
}

func TestEngineRunWithoutBudgetValidatesEverything(t *testing.T) {
	d := smallDataset(t, 10, 5)
	e, err := NewEngineContext(context.Background(), d.Answers, Config{Strategy: &guidance.Random{Rand: rand.New(rand.NewSource(2))}})
	if err != nil {
		t.Fatal(err)
	}
	summary, err := e.RunContext(context.Background(), &simulation.OracleExpert{Truth: d.Truth}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Iterations != 10 {
		t.Fatalf("iterations = %d, want 10", summary.Iterations)
	}
	// With every object validated by an oracle, precision is 1.
	if p := metrics.Precision(summary.Assignment, d.Truth); p != 1 {
		t.Fatalf("final precision = %v, want 1", p)
	}
	if summary.FinalUncertainty != 0 {
		t.Fatalf("final uncertainty = %v, want 0", summary.FinalUncertainty)
	}
}

func TestEnginePrecisionImprovesWithValidation(t *testing.T) {
	d := smallDataset(t, 40, 6)
	e, err := NewEngineContext(context.Background(), d.Answers, Config{
		Strategy: &guidance.Hybrid{
			Uncertainty: &guidance.UncertaintyDriven{CandidateLimit: 8},
			Rand:        rand.New(rand.NewSource(3)),
		},
		Budget: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	initialPrecision := metrics.Precision(e.Assignment(), d.Truth)
	summary, err := e.RunContext(context.Background(), &simulation.OracleExpert{Truth: d.Truth}, nil)
	if err != nil {
		t.Fatal(err)
	}
	finalPrecision := metrics.Precision(summary.Assignment, d.Truth)
	if finalPrecision < initialPrecision {
		t.Fatalf("precision degraded from %v to %v", initialPrecision, finalPrecision)
	}
	if finalPrecision < 0.8 {
		t.Fatalf("final precision = %v, want >= 0.8 after validating half the objects", finalPrecision)
	}
}

func TestEngineHybridQuarantinesSpammers(t *testing.T) {
	// A crowd with a heavy spammer presence; the hybrid engine should start
	// quarantining faulty workers once enough validations accumulated.
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
		Strategy: &guidance.Hybrid{
			Uncertainty: &guidance.UncertaintyDriven{CandidateLimit: 5},
			Rand:        rand.New(rand.NewSource(11)),
		},
		Detector: &spamdetect.Detector{MinValidatedAnswers: 3},
		Budget:   25,
	})
	if err != nil {
		t.Fatal(err)
	}
	summary, err := e.RunContext(context.Background(), &simulation.OracleExpert{Truth: d.Truth}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// At least one worker-driven step should have happened and flagged
	// workers at some point.
	flaggedAtSomePoint := false
	for _, rec := range summary.History {
		if rec.FaultyWorkers > 0 {
			flaggedAtSomePoint = true
			break
		}
	}
	if !flaggedAtSomePoint {
		t.Fatal("no faulty workers were ever detected in a spammer-heavy crowd")
	}
	// The original answer set must be untouched by the quarantine.
	if d.Answers.AnswerCount() == 0 {
		t.Fatal("original answers were modified")
	}
}

func TestEngineConfirmationCheckRevisesMistakes(t *testing.T) {
	// Strong crowd consensus, erroneous expert with a high mistake rate, and
	// a confirmation check after every validation: mistakes should be caught
	// and revised, costing extra effort.
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects: 20, NumWorkers: 8, NumLabels: 2,
		Mix:            simulation.WorkerMix{Normal: 1},
		NormalAccuracy: 0.95,
		Seed:           13,
	})
	if err != nil {
		t.Fatal(err)
	}
	expert := simulation.NewErroneousExpert(d.Truth, 2, 0.5, rand.New(rand.NewSource(5)))
	e, err := NewEngineContext(context.Background(), d.Answers, Config{
		Strategy:     &guidance.Baseline{},
		Confirmation: &guidance.ConfirmationCheck{Period: 1},
		Budget:       30,
	})
	if err != nil {
		t.Fatal(err)
	}
	summary, err := e.RunContext(context.Background(), expert, nil)
	if err != nil {
		t.Fatal(err)
	}
	if expert.MistakeCount() == 0 {
		t.Fatal("expert made no mistakes: the pinned crowd (seed 13) and expert (seed 5) must make some")
	}
	revised := 0
	for _, rec := range summary.History {
		revised += len(rec.RevisedObjects)
	}
	if revised == 0 {
		t.Fatalf("expert made %d mistakes but none was revised", expert.MistakeCount())
	}
	if summary.EffortSpent <= summary.Iterations {
		t.Fatal("revisions must count as extra effort")
	}
	// After revision the validations should agree with the truth.
	finalPrecision := metrics.Precision(summary.Assignment, d.Truth)
	if finalPrecision < 0.9 {
		t.Fatalf("final precision with confirmation check = %v", finalPrecision)
	}
}

func TestEngineParallelMatchesSerialSelection(t *testing.T) {
	d := smallDataset(t, 12, 9)
	run := func(parallel bool) []int {
		e, err := NewEngineContext(context.Background(), d.Answers, Config{
			Strategy:       &guidance.UncertaintyDriven{},
			Parallel:       parallel,
			MaxParallelism: 4,
			Budget:         4,
		})
		if err != nil {
			t.Fatal(err)
		}
		summary, err := e.RunContext(context.Background(), &simulation.OracleExpert{Truth: d.Truth}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var objects []int
		for _, rec := range summary.History {
			objects = append(objects, rec.Object)
		}
		return objects
	}
	serial := run(false)
	parallel := run(true)
	if len(serial) != len(parallel) {
		t.Fatalf("different run lengths: %v vs %v", serial, parallel)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("selection diverged at step %d: serial %v, parallel %v", i, serial, parallel)
		}
	}
}

func TestExpertFuncAdapter(t *testing.T) {
	f := ExpertFunc(func(object int) (model.Label, error) { return model.Label(object % 2), nil })
	l, err := f.ValidateObject(3)
	if err != nil || l != 1 {
		t.Fatalf("ExpertFunc = %v, %v", l, err)
	}
}

func TestUncertaintyBelowGoal(t *testing.T) {
	d := smallDataset(t, 10, 10)
	e, err := NewEngineContext(context.Background(), d.Answers, Config{Strategy: &guidance.Baseline{}})
	if err != nil {
		t.Fatal(err)
	}
	if UncertaintyBelow(0)(e) {
		t.Fatal("uncertainty cannot be below zero")
	}
	if !UncertaintyBelow(1e12)(e) {
		t.Fatal("huge threshold should be satisfied")
	}
}

func TestEngineWorkerDrivenStrategyReportsBranch(t *testing.T) {
	d := smallDataset(t, 15, 11)
	e, err := NewEngineContext(context.Background(), d.Answers, Config{
		Strategy:            &guidance.WorkerDriven{},
		HandleFaultyWorkers: true,
		Budget:              5,
	})
	if err != nil {
		t.Fatal(err)
	}
	summary, err := e.RunContext(context.Background(), &simulation.OracleExpert{Truth: d.Truth}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(summary.History) != 5 {
		t.Fatalf("ran %d validations, want the budget of 5", len(summary.History))
	}
	// Every step took the worker-driven branch, so the quarantine followed
	// each step's detection: replaying the recorded changes must give the
	// engine's final quarantine.
	masked := map[int]bool{}
	for _, rec := range summary.History {
		if !rec.WorkerDrivenUsed {
			t.Fatal("pure worker-driven strategy must always report WorkerDrivenUsed")
		}
		for _, w := range rec.MaskedWorkers {
			masked[w] = true
		}
		for _, w := range rec.RestoredWorkers {
			delete(masked, w)
		}
	}
	got := e.QuarantinedWorkers()
	if len(got) != len(masked) {
		t.Fatalf("quarantine = %v, history replays to %v", got, masked)
	}
	for _, w := range got {
		if !masked[w] {
			t.Fatalf("quarantine = %v, history replays to %v", got, masked)
		}
	}
}
