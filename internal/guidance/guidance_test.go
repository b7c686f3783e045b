package guidance

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/cverr"
	"crowdval/internal/model"
	"crowdval/internal/spamdetect"
)

// buildContext aggregates the answers with i-EM and wraps everything in a
// guidance context.
func buildContext(t *testing.T, answers *model.AnswerSet, validation *model.Validation) *Context {
	t.Helper()
	if validation == nil {
		validation = model.NewValidation(answers.NumObjects())
	}
	agg := &aggregation.IncrementalEM{}
	res, err := agg.Aggregate(answers, validation, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Context{
		Answers:    answers,
		ProbSet:    res.ProbSet,
		Aggregator: agg,
		Detector:   &spamdetect.Detector{},
	}
}

// selectOne is a single-object selection: the head of SelectK(ctx, 1).
func selectOne(s Strategy, ctx *Context) (int, error) {
	ranked, err := s.SelectK(ctx, 1)
	if err != nil {
		return -1, err
	}
	return ranked[0].Object, nil
}

// mixedCrowdAnswers builds a binary task with 3 reliable workers and one
// random spammer answering every object; object ambiguity varies.
func mixedCrowdAnswers(t *testing.T, n int, seed int64) (*model.AnswerSet, model.DeterministicAssignment) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := model.MustNewAnswerSet(n, 4, 2)
	truth := make(model.DeterministicAssignment, n)
	for o := 0; o < n; o++ {
		truth[o] = model.Label(o % 2)
		for w := 0; w < 3; w++ {
			l := truth[o]
			if rng.Float64() > 0.85 {
				l = model.Label(1 - int(l))
			}
			if err := a.SetAnswer(o, w, l); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.SetAnswer(o, 3, model.Label(rng.Intn(2))); err != nil {
			t.Fatal(err)
		}
	}
	return a, truth
}

func TestRandomStrategy(t *testing.T) {
	a, _ := mixedCrowdAnswers(t, 10, 1)
	ctx := buildContext(t, a, nil)
	r := &Random{Rand: rand.New(rand.NewSource(5))}
	o, err := selectOne(r, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if o < 0 || o >= 10 {
		t.Fatalf("selected object %d out of range", o)
	}
	if r.Name() != "random" {
		t.Fatal("unexpected name")
	}
	// Validating every other object restricts the choice.
	for o := 0; o < 10; o++ {
		if o != 3 {
			ctx.ProbSet.Validation.Set(o, 0)
		}
	}
	o, err = selectOne(r, ctx)
	if err != nil || o != 3 {
		t.Fatalf("restricted selection = %d (%v)", o, err)
	}
	// Nil Rand still works.
	r2 := &Random{}
	if _, err := selectOne(r2, ctx); err != nil {
		t.Fatal(err)
	}
	// No candidates left.
	ctx.ProbSet.Validation.Set(3, 0)
	if _, err := selectOne(r, ctx); err != ErrNoCandidates {
		t.Fatalf("expected ErrNoCandidates, got %v", err)
	}
}

func TestBaselineSelectsMaxEntropyObject(t *testing.T) {
	a, _ := mixedCrowdAnswers(t, 8, 2)
	ctx := buildContext(t, a, nil)
	// Force a clearly most-uncertain object.
	ctx.ProbSet.Assignment.SetRow(5, []float64{0.5, 0.5})
	for o := 0; o < 8; o++ {
		if o != 5 {
			ctx.ProbSet.Assignment.SetRow(o, []float64{0.95, 0.05})
		}
	}
	b := &Baseline{}
	o, err := selectOne(b, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if o != 5 {
		t.Fatalf("baseline selected %d, want 5", o)
	}
	if b.Name() != "baseline-entropy" {
		t.Fatal("unexpected name")
	}
	ctx.ProbSet.Validation = fullyValidated(8)
	if _, err := selectOne(b, ctx); err != ErrNoCandidates {
		t.Fatalf("expected ErrNoCandidates, got %v", err)
	}
}

func fullyValidated(n int) *model.Validation {
	v := model.NewValidation(n)
	for o := 0; o < n; o++ {
		v.Set(o, 0)
	}
	return v
}

func TestInformationGainPrefersAmbiguousObjects(t *testing.T) {
	a, _ := mixedCrowdAnswers(t, 12, 3)
	ctx := buildContext(t, a, nil)

	// Identify the most and least entropic objects under the aggregation.
	top, err := (&Baseline{}).SelectK(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	mostAmbiguous := top[0].Object
	leastAmbiguous, leastH := 0, math.Inf(1)
	for o := 0; o < 12; o++ {
		if h := aggregation.ObjectEntropy(ctx.ProbSet.Assignment, o); h < leastH {
			leastAmbiguous, leastH = o, h
		}
	}
	if mostAmbiguous == leastAmbiguous {
		t.Fatal("degenerate aggregation: the pinned crowd (seed 3) must leave objects of different certainty")
	}
	currentH := aggregation.Uncertainty(ctx.ProbSet)
	igMost, err := InformationGain(ctx, mostAmbiguous, currentH)
	if err != nil {
		t.Fatal(err)
	}
	igLeast, err := InformationGain(ctx, leastAmbiguous, -1) // negative triggers recompute
	if err != nil {
		t.Fatal(err)
	}
	if igMost < igLeast {
		t.Fatalf("IG(most ambiguous)=%v < IG(least ambiguous)=%v", igMost, igLeast)
	}
}

func TestUncertaintyDrivenSelectAndCandidateLimit(t *testing.T) {
	a, _ := mixedCrowdAnswers(t, 10, 4)
	ctx := buildContext(t, a, nil)
	u := &UncertaintyDriven{}
	serial, err := selectOne(u, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel scoring must select the same object.
	ctxParallel := buildContext(t, a, nil)
	ctxParallel.Parallel = true
	ctxParallel.MaxParallelism = 4
	parallel, err := selectOne(u, ctxParallel)
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Fatalf("serial selected %d, parallel selected %d", serial, parallel)
	}
	// A candidate limit of 1 reduces to the entropy baseline.
	limited := &UncertaintyDriven{CandidateLimit: 1}
	sel, err := selectOne(limited, ctx)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := selectOne(&Baseline{}, ctx)
	if sel != base {
		t.Fatalf("candidate-limit-1 selected %d, baseline %d", sel, base)
	}
	if u.Name() != "uncertainty-driven" {
		t.Fatal("unexpected name")
	}
	ctx.ProbSet.Validation = fullyValidated(10)
	if _, err := selectOne(u, ctx); err != ErrNoCandidates {
		t.Fatalf("expected ErrNoCandidates, got %v", err)
	}
}

func TestWorkerDrivenPrefersObjectsAnsweredBySuspects(t *testing.T) {
	// 6 objects; a random spammer answers only objects 0–2, reliable workers
	// answer everything. Object 0 is already validated, so validating another
	// spammer-covered object (1 or 2) pushes the spammer over the assessment
	// threshold, while objects 3–5 cannot reveal anything.
	a := model.MustNewAnswerSet(6, 3, 2)
	truth := model.DeterministicAssignment{0, 1, 0, 1, 0, 1}
	spammerAnswers := []model.Label{1, 0, 1} // disagrees with truth on all three
	for o := 0; o < 6; o++ {
		for w := 0; w < 2; w++ {
			if err := a.SetAnswer(o, w, truth[o]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for o := 0; o < 3; o++ {
		if err := a.SetAnswer(o, 2, spammerAnswers[o]); err != nil {
			t.Fatal(err)
		}
	}
	v := model.NewValidation(6)
	v.Set(0, truth[0])
	ctx := buildContext(t, a, v)
	ctx.Detector = &spamdetect.Detector{MinValidatedAnswers: 2, SloppyThreshold: 0.7}

	w := &WorkerDriven{}
	selected, err := selectOne(w, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if selected != 1 && selected != 2 {
		t.Fatalf("worker-driven selected %d, want 1 or 2", selected)
	}
	if w.Name() != "worker-driven" {
		t.Fatal("unexpected name")
	}

	// Expected detections for an object the spammer never answered is (near)
	// zero — only the vanishingly unlikely hypothesis that the reliable
	// consensus is wrong contributes.
	priors := ctx.ProbSet.Assignment.Priors()
	none, err := ExpectedDetectedFaultyWorkers(ctx, 4, priors)
	if err != nil {
		t.Fatal(err)
	}
	if none > 0.01 {
		t.Fatalf("expected detections for uncovered object = %v, want ~0", none)
	}
	some, err := ExpectedDetectedFaultyWorkers(ctx, selected, priors)
	if err != nil {
		t.Fatal(err)
	}
	if some <= none {
		t.Fatalf("expected detections: covered %v <= uncovered %v", some, none)
	}
}

func TestWorkerDrivenNoCandidates(t *testing.T) {
	a, _ := mixedCrowdAnswers(t, 4, 6)
	ctx := buildContext(t, a, fullyValidated(4))
	w := &WorkerDriven{}
	if _, err := selectOne(w, ctx); err != ErrNoCandidates {
		t.Fatalf("expected ErrNoCandidates, got %v", err)
	}
}

func TestHybridWeightFormula(t *testing.T) {
	h := &Hybrid{}
	if h.Weight() != 0 {
		t.Fatal("initial weight must be 0")
	}
	// Early phase: no validations yet, the error rate dominates.
	z := h.UpdateWeight(1, 0, 0)
	if want := 1 - math.Exp(-1); math.Abs(z-want) > 1e-12 {
		t.Fatalf("z = %v, want %v", z, want)
	}
	// Late phase: validation ratio 1, the faulty-worker ratio dominates.
	z = h.UpdateWeight(1, 0.5, 1)
	if want := 1 - math.Exp(-0.5); math.Abs(z-want) > 1e-12 {
		t.Fatalf("z = %v, want %v", z, want)
	}
	// Inputs are clamped to [0, 1].
	z = h.UpdateWeight(-3, 7, 0.5)
	if want := 1 - math.Exp(-(0*0.5 + 1*0.5)); math.Abs(z-want) > 1e-12 {
		t.Fatalf("clamped z = %v, want %v", z, want)
	}
	if h.Weight() != z {
		t.Fatal("Weight() should return the latest value")
	}
	if h.Name() != "hybrid" {
		t.Fatal("unexpected name")
	}
}

func TestHybridRouletteWheel(t *testing.T) {
	a, _ := mixedCrowdAnswers(t, 8, 8)
	ctx := buildContext(t, a, nil)
	ctx.Detector = &spamdetect.Detector{}

	// With weight 0 the uncertainty branch is always taken.
	h := &Hybrid{Rand: rand.New(rand.NewSource(2))}
	if _, err := selectOne(h, ctx); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		if _, ok := h.ChooseBranch().(*WorkerDriven); ok {
			t.Fatal("weight 0 must never use the worker-driven branch")
		}
	}
	// With weight ~1 the worker-driven branch dominates.
	h.UpdateWeight(1, 1, 1)
	if _, err := selectOne(h, ctx); err != nil {
		t.Fatal(err)
	}
	workerChosen := 0
	for trial := 0; trial < 10; trial++ {
		if _, ok := h.ChooseBranch().(*WorkerDriven); ok {
			workerChosen++
		}
	}
	if workerChosen < 5 {
		t.Fatalf("worker-driven branch chosen %d/10 times with z=%.3f", workerChosen, h.Weight())
	}
	// Nil sub-strategies and nil Rand are tolerated.
	h2 := &Hybrid{}
	if _, err := selectOne(h2, ctx); err != nil {
		t.Fatal(err)
	}
}

func TestConfirmationCheckDetectsErroneousValidation(t *testing.T) {
	// Strong crowd consensus on every object; the expert confirms object 0
	// correctly but validates object 1 with the wrong label.
	a := model.MustNewAnswerSet(6, 5, 2)
	truth := model.DeterministicAssignment{0, 1, 0, 1, 0, 1}
	for o := 0; o < 6; o++ {
		for w := 0; w < 5; w++ {
			if err := a.SetAnswer(o, w, truth[o]); err != nil {
				t.Fatal(err)
			}
		}
	}
	v := model.NewValidation(6)
	v.Set(0, truth[0])
	v.Set(1, model.Label(1-int(truth[1]))) // erroneous

	check := &ConfirmationCheck{}
	suspects, err := check.Check(a, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) != 1 || suspects[0].Object != 1 {
		t.Fatalf("suspects = %+v, want object 1 only", suspects)
	}
	if suspects[0].ExpertLabel == suspects[0].CrowdLabel {
		t.Fatal("suspect labels should disagree")
	}
	// Once corrected, object 1 is no longer suspect; unvalidated objects
	// are never checked.
	v.Set(1, truth[1])
	if suspects, err := check.Check(a, v); err != nil || len(suspects) != 0 {
		t.Fatalf("corrected validation: suspects = %+v (%v), want none", suspects, err)
	}
	if _, err := check.Check(nil, nil); !errors.Is(err, cverr.ErrNilAnswerSet) {
		t.Fatalf("nil answers: err = %v, want ErrNilAnswerSet", err)
	}
	if _, err := check.Check(a, nil); !errors.Is(err, cverr.ErrNilValidation) {
		t.Fatalf("nil validation: err = %v, want ErrNilValidation", err)
	}
}

func TestConfirmationCheckPeriod(t *testing.T) {
	var nilCheck *ConfirmationCheck
	if nilCheck.EffectivePeriod() != 1 {
		t.Fatal("nil check period should be 1")
	}
	c := &ConfirmationCheck{Period: 5}
	if c.EffectivePeriod() != 5 {
		t.Fatal("explicit period ignored")
	}
	c.Period = -2
	if c.EffectivePeriod() != 1 {
		t.Fatal("negative period should clamp to 1")
	}
}

// TestTopEntropyCandidates: the prefilter of a context without an index
// ranks the open objects by entropy from an index it builds itself, with the
// entropies only; limit 0 and a limit above the open count keep every open
// object in ascending order.
func TestTopEntropyCandidates(t *testing.T) {
	u := model.NewAssignmentMatrix(4, 2)
	u.SetRow(0, []float64{0.5, 0.5})
	u.SetRow(1, []float64{0.99, 0.01})
	u.SetRow(2, []float64{0.7, 0.3})
	u.SetRow(3, []float64{0.6, 0.4})
	ctx := &Context{ProbSet: &model.ProbabilisticAnswerSet{Assignment: u, Validation: model.NewValidation(4)}}
	top2, err := ctx.prefilter(2)
	if err != nil || !slices.Equal(top2, []int{0, 3}) {
		t.Fatalf("top2 = %v (%v), want [0 3]", top2, err)
	}
	if ctx.Index == nil {
		t.Fatal("the prefilter did not keep the index it built")
	}
	for _, limit := range []int{0, 10} {
		if got, err := ctx.prefilter(limit); err != nil || !slices.Equal(got, []int{0, 1, 2, 3}) {
			t.Fatalf("limit %d: %v (%v), want every candidate", limit, got, err)
		}
	}
}
