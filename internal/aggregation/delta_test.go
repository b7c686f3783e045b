package aggregation

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"crowdval/internal/model"
)

// deltaTestSet builds a crowd of reliable-but-noisy workers over a seeded
// ground truth: decent signal, so fixed points are well separated.
func deltaTestSet(t *testing.T, n, k int, seed int64) (*model.AnswerSet, []model.Label) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	answers := model.MustNewAnswerSet(n, k, 2)
	truth := make([]model.Label, n)
	for o := range truth {
		truth[o] = model.Label(rng.Intn(2))
	}
	for o := 0; o < n; o++ {
		for w := 0; w < k; w++ {
			if rng.Float64() > 0.4 {
				continue
			}
			label := truth[o]
			if rng.Float64() > 0.75 {
				label = 1 - label
			}
			if err := answers.SetAnswer(o, w, label); err != nil {
				t.Fatal(err)
			}
		}
	}
	return answers, truth
}

// fullEStepDiff measures how much one full E-step would move the assignment
// of a probabilistic state — the "is this a fixed point of the full EM"
// statistic the delta path promises to keep below tolerance.
func fullEStepDiff(t *testing.T, p *model.ProbabilisticAnswerSet) float64 {
	t.Helper()
	diff, err := FixedPointResidual(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return diff
}

// TestDeltaSettlesToFullFixedPoint is the core contract: after a frontier
// mutation, the delta path's result is a fixed point of the full EM within
// tolerance, and it agrees with a full recompute over the same evidence.
func TestDeltaSettlesToFullFixedPoint(t *testing.T) {
	answers, truth := deltaTestSet(t, 120, 15, 7)
	validation := model.NewValidation(answers.NumObjects())

	full := &IncrementalEM{Config: EMConfig{Parallelism: 1}}
	base, err := full.Aggregate(answers, validation, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate a small frontier: new answers for three objects, one validation.
	deltaAnswers := answers.Clone()
	deltaAnswers.TrackDirty()
	for _, o := range []int{3, 40, 77} {
		if err := deltaAnswers.SetAnswer(o, 2, truth[o]); err != nil {
			t.Fatal(err)
		}
	}
	deltaValidation := validation.Clone()
	deltaValidation.Set(55, truth[55])
	deltaAnswers.MarkObjectDirty(55)

	deltaAgg := &IncrementalEM{Config: EMConfig{Parallelism: 1}, Delta: DeltaConfig{Enabled: true}}
	frontier := &Delta{Objects: deltaAnswers.DirtyObjects(), Workers: deltaAnswers.DirtyWorkers()}
	got, err := deltaAgg.AggregateDeltaContext(context.Background(), deltaAnswers, deltaValidation, base.ProbSet, frontier)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged {
		t.Fatalf("delta path did not converge (%d delta + %d full iterations)", got.DeltaIterations, got.Iterations)
	}
	if got.DeltaIterations == 0 {
		t.Fatal("delta phase did not run on a small frontier")
	}

	// Fixed-point certificate, asserted explicitly: one more full E-step
	// moves the accepted state by at most the documented settle tolerance
	// (×2 slack for the M-step applied after the accepting sweep).
	if diff := fullEStepDiff(t, got.ProbSet); diff >= 2*DefaultSettleTolerance {
		t.Fatalf("delta result is not a full-EM fixed point: one full E-step moves it by %g (settle tol %g)",
			diff, DefaultSettleTolerance)
	}

	// Same evidence through the plain full warm start.
	want, err := full.Aggregate(deltaAnswers, deltaValidation, base.ProbSet)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := want.ProbSet.Instantiate()
	gotLabels := got.ProbSet.Instantiate()
	const parityTol = 1e-2 // documented posterior-agreement tolerance of the delta path
	for o := 0; o < deltaAnswers.NumObjects(); o++ {
		for l := 0; l < 2; l++ {
			d := math.Abs(got.ProbSet.Assignment.Prob(o, model.Label(l)) - want.ProbSet.Assignment.Prob(o, model.Label(l)))
			if d > parityTol {
				t.Fatalf("object %d label %d: posterior differs by %g (> %g)", o, l, d, parityTol)
			}
		}
		_, margin := want.ProbSet.Assignment.MostLikely(o)
		if margin >= 0.5+parityTol && gotLabels[o] != wantLabels[o] {
			t.Fatalf("object %d: label %d (delta) vs %d (full) despite margin %g", o, gotLabels[o], wantLabels[o], margin)
		}
	}
}

// TestDeltaFallsBackOnLargeFrontier: a frontier above DefaultMaxDirtyFraction
// skips the delta phase entirely and behaves like the full warm start.
func TestDeltaFallsBackOnLargeFrontier(t *testing.T) {
	answers, truth := deltaTestSet(t, 60, 10, 11)
	validation := model.NewValidation(answers.NumObjects())
	full := &IncrementalEM{Config: EMConfig{Parallelism: 1}}
	base, err := full.Aggregate(answers, validation, nil)
	if err != nil {
		t.Fatal(err)
	}

	mutated := answers.Clone()
	mutated.TrackDirty()
	for o := 0; o < 40; o++ { // 2/3 of the objects — far above the default 25%
		if err := mutated.SetAnswer(o, 1, truth[o]); err != nil {
			t.Fatal(err)
		}
	}
	agg := &IncrementalEM{Config: EMConfig{Parallelism: 1}, Delta: DeltaConfig{Enabled: true}}
	frontier := &Delta{Objects: mutated.DirtyObjects(), Workers: mutated.DirtyWorkers()}
	got, err := agg.AggregateDeltaContext(context.Background(), mutated, validation, base.ProbSet, frontier)
	if err != nil {
		t.Fatal(err)
	}
	if got.DeltaIterations != 0 {
		t.Fatalf("delta phase ran %d iterations on a %d/%d frontier", got.DeltaIterations, 40, 60)
	}
	// Bitwise identical to the full warm start: the fallback is the full path.
	want, err := full.Aggregate(mutated, validation, base.ProbSet)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.ProbSet.Assignment.MaxAbsDiff(want.ProbSet.Assignment); d != 0 {
		t.Fatalf("fallback differs from full warm start by %g", d)
	}
}

// TestDeltaDisabledOrColdDegradesToFull: a disabled config, a nil frontier
// and a missing warm state must all produce exactly the full path's result.
func TestDeltaDisabledOrColdDegradesToFull(t *testing.T) {
	answers, _ := deltaTestSet(t, 40, 8, 3)
	validation := model.NewValidation(answers.NumObjects())
	full := &IncrementalEM{Config: EMConfig{Parallelism: 1}}
	want, err := full.Aggregate(answers, validation, nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]struct {
		agg      *IncrementalEM
		prev     *model.ProbabilisticAnswerSet
		frontier *Delta
	}{
		"disabled":     {&IncrementalEM{Config: EMConfig{Parallelism: 1}}, nil, &Delta{Objects: []int{1}}},
		"nil frontier": {&IncrementalEM{Config: EMConfig{Parallelism: 1}, Delta: DeltaConfig{Enabled: true}}, nil, nil},
		"cold start":   {&IncrementalEM{Config: EMConfig{Parallelism: 1}, Delta: DeltaConfig{Enabled: true}}, nil, &Delta{Objects: []int{1}}},
	}
	for name, tc := range cases {
		got, err := tc.agg.AggregateDeltaContext(context.Background(), answers, validation, tc.prev, tc.frontier)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.DeltaIterations != 0 {
			t.Fatalf("%s: delta phase ran", name)
		}
		if d := got.ProbSet.Assignment.MaxAbsDiff(want.ProbSet.Assignment); d != 0 {
			t.Fatalf("%s: differs from full path by %g", name, d)
		}
	}
}

// TestDeltaCancellation: a cancelled context aborts both phases with the
// context's error and leaves prev untouched.
func TestDeltaCancellation(t *testing.T) {
	answers, truth := deltaTestSet(t, 50, 8, 5)
	validation := model.NewValidation(answers.NumObjects())
	full := &IncrementalEM{Config: EMConfig{Parallelism: 1}}
	base, err := full.Aggregate(answers, validation, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := base.ProbSet.Assignment.Clone()

	mutated := answers.Clone()
	mutated.TrackDirty()
	if err := mutated.SetAnswer(7, 1, truth[7]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	agg := &IncrementalEM{Config: EMConfig{Parallelism: 1}, Delta: DeltaConfig{Enabled: true}}
	frontier := &Delta{Objects: mutated.DirtyObjects(), Workers: mutated.DirtyWorkers()}
	if _, err := agg.AggregateDeltaContext(ctx, mutated, validation, base.ProbSet, frontier); err != context.Canceled {
		t.Fatalf("cancelled delta aggregation returned %v", err)
	}
	if d := base.ProbSet.Assignment.MaxAbsDiff(snapshot); d != 0 {
		t.Fatalf("cancelled delta aggregation mutated prev by %g", d)
	}
}

// TestDeltaStallProceedsToSettle: with the frontier iteration cap forced to
// one, a frontier that needs more work is handed to the settle phase, which
// still produces a full fixed point.
func TestDeltaStallProceedsToSettle(t *testing.T) {
	answers, truth := deltaTestSet(t, 80, 12, 19)
	validation := model.NewValidation(answers.NumObjects())
	full := &IncrementalEM{Config: EMConfig{Parallelism: 1}}
	base, err := full.Aggregate(answers, validation, nil)
	if err != nil {
		t.Fatal(err)
	}
	mutated := answers.Clone()
	mutated.TrackDirty()
	for o := 0; o < 10; o++ {
		if err := mutated.SetAnswer(o, 3, 1-truth[o]); err != nil { // contrarian evidence
			t.Fatal(err)
		}
	}
	agg := &IncrementalEM{Config: EMConfig{Parallelism: 1},
		Delta: DeltaConfig{Enabled: true, MaxDeltaIterations: 1}}
	frontier := &Delta{Objects: mutated.DirtyObjects(), Workers: mutated.DirtyWorkers()}
	got, err := agg.AggregateDeltaContext(context.Background(), mutated, validation, base.ProbSet, frontier)
	if err != nil {
		t.Fatal(err)
	}
	if got.DeltaIterations != 1 {
		t.Fatalf("delta iterations = %d, want the forced cap of 1", got.DeltaIterations)
	}
	if !got.Converged {
		t.Fatal("settle phase did not converge")
	}
	if diff := fullEStepDiff(t, got.ProbSet); diff >= 2*DefaultSettleTolerance {
		t.Fatalf("stalled delta result is not a full fixed point: %g >= %g", diff, 2*DefaultSettleTolerance)
	}
}

// TestDeltaOutcomeReported pins Result.DeltaOutcome for every way a delta
// call can go: disabled, no warm state, unknown or oversized frontier, frontier
// converged, and frontier stalled at its iteration cap.
func TestDeltaOutcomeReported(t *testing.T) {
	answers, truth := deltaTestSet(t, 80, 12, 19)
	validation := model.NewValidation(answers.NumObjects())
	base, err := (&IncrementalEM{Config: EMConfig{Parallelism: 1}}).Aggregate(answers, validation, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Contrarian evidence on a small frontier (10 of 80 objects): the
	// frontier phase needs more than one iteration to absorb it.
	small := answers.Clone()
	small.TrackDirty()
	for o := 0; o < 10; o++ {
		if err := small.SetAnswer(o, 3, 1-truth[o]); err != nil {
			t.Fatal(err)
		}
	}
	smallFrontier := &Delta{Objects: small.DirtyObjects(), Workers: small.DirtyWorkers()}
	large := answers.Clone()
	large.TrackDirty()
	for o := 0; o < 40; o++ {
		if err := large.SetAnswer(o, 1, truth[o]); err != nil {
			t.Fatal(err)
		}
	}
	largeFrontier := &Delta{Objects: large.DirtyObjects(), Workers: large.DirtyWorkers()}

	enabled := DeltaConfig{Enabled: true}
	cases := []struct {
		name     string
		cfg      DeltaConfig
		answers  *model.AnswerSet
		prev     *model.ProbabilisticAnswerSet
		frontier *Delta
		want     DeltaOutcome
	}{
		{"disabled", DeltaConfig{}, small, base.ProbSet, smallFrontier, DeltaNotRun},
		{"no warm state", enabled, small, nil, smallFrontier, DeltaLargeFrontier},
		{"nil frontier", enabled, small, base.ProbSet, nil, DeltaLargeFrontier},
		{"large frontier", enabled, large, base.ProbSet, largeFrontier, DeltaLargeFrontier},
		{"accepted", enabled, small, base.ProbSet, smallFrontier, DeltaAccepted},
		{"stalled", DeltaConfig{Enabled: true, MaxDeltaIterations: 1}, small, base.ProbSet, smallFrontier, DeltaStalled},
	}
	for _, tc := range cases {
		agg := &IncrementalEM{Config: EMConfig{Parallelism: 1}, Delta: tc.cfg}
		got, err := agg.AggregateDeltaContext(context.Background(), tc.answers, validation, tc.prev, tc.frontier)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.DeltaOutcome != tc.want {
			t.Fatalf("%s: outcome %d, want %d", tc.name, got.DeltaOutcome, tc.want)
		}
		ranFrontier := tc.want == DeltaAccepted || tc.want == DeltaStalled
		if ran := got.DeltaIterations > 0; ran != ranFrontier {
			t.Fatalf("%s: %d delta iterations, but outcome %d says the frontier phase ran = %v", tc.name, got.DeltaIterations, tc.want, ranFrontier)
		}
	}
}
