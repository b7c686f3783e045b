package guidance

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/model"
	"crowdval/internal/spamdetect"
)

// deltaContext builds a guidance context with delta-accelerated scoring.
func deltaContext(t *testing.T, answers *model.AnswerSet, validation *model.Validation) *Context {
	t.Helper()
	ctx := buildContext(t, answers, validation)
	ctx.DeltaScore = true
	return ctx
}

// TestTopKByScore: the bounded heap keeps the k best pushes ranked by score
// descending, ties toward the smaller object index, whatever the push order.
func TestTopKByScore(t *testing.T) {
	pushed := []ScoredObject{{4, 0.5}, {1, 0.9}, {7, 0.5}, {2, 0.1}, {9, 0.9}}
	topOf := func(k int) []ScoredObject {
		top := newTopK(k, len(pushed))
		for _, c := range pushed {
			top.push(c)
		}
		return top.ranking()
	}
	want := []ScoredObject{{Object: 1, Score: 0.9}, {Object: 9, Score: 0.9}, {Object: 4, Score: 0.5}}
	if top := topOf(3); !slices.Equal(top, want) {
		t.Fatalf("top = %v, want %v", top, want)
	}
	if got := topOf(99); len(got) != len(pushed) {
		t.Fatalf("k beyond length returned %d entries", len(got))
	}
	if got := topOf(0); got != nil {
		t.Fatalf("k = 0 returned %v", got)
	}
	full := topOf(len(pushed))
	for i := 1; i < len(full); i++ {
		if full[i-1].Score < full[i].Score {
			t.Fatalf("full ranking not sorted: %v", full)
		}
	}
}

// TestSelectKFirstMatchesSelect: for every scoring strategy, SelectK
// rankings are deterministic across serial and parallel scoring and ordered
// by score descending, ties toward the smaller object index.
func TestSelectKFirstMatchesSelect(t *testing.T) {
	answers, _ := mixedCrowdAnswers(t, 14, 9)
	strategies := []Strategy{
		&UncertaintyDriven{},
		&WorkerDriven{},
		&Baseline{},
	}
	for _, deltaScore := range []bool{false, true} {
		for _, s := range strategies {
			serialK, err := s.SelectK(buildCtxLike(t, answers, deltaScore, false), 5)
			if err != nil {
				t.Fatal(err)
			}
			parallelK, err := s.SelectK(buildCtxLike(t, answers, deltaScore, true), 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(serialK) != 5 || len(parallelK) != 5 {
				t.Fatalf("%s: rankings have %d/%d entries, want 5", s.Name(), len(serialK), len(parallelK))
			}
			for i := range serialK {
				if serialK[i] != parallelK[i] {
					t.Fatalf("%s (delta=%v): serial ranking %v != parallel %v", s.Name(), deltaScore, serialK, parallelK)
				}
			}
			for i := 1; i < len(serialK); i++ {
				prev, cur := serialK[i-1], serialK[i]
				if prev.Score < cur.Score || (prev.Score == cur.Score && prev.Object > cur.Object) {
					t.Fatalf("%s: ranking order violated at %d: %v", s.Name(), i, serialK)
				}
			}
		}
	}
}

// buildCtxLike builds a fresh context over the same answers (the aggregation
// is deterministic, so repeated builds are bit-identical).
func buildCtxLike(t *testing.T, answers *model.AnswerSet, deltaScore, parallel bool) *Context {
	t.Helper()
	ctx := buildContext(t, answers, nil)
	ctx.DeltaScore = deltaScore
	ctx.Parallel = parallel
	ctx.MaxParallelism = 4
	return ctx
}

// TestWorkerDrivenDeltaScoresAreExact: the incremental worker-driven scorer
// is not an approximation — every ranked score equals the full-recount
// reference ExpectedDetectedFaultyWorkers bit for bit, with and without
// DeltaScore, serial and parallel.
func TestWorkerDrivenDeltaScoresAreExact(t *testing.T) {
	answers, _ := mixedCrowdAnswers(t, 12, 5)
	detector := &spamdetect.Detector{MinValidatedAnswers: 2, SloppyThreshold: 0.7}
	faulty := 0.0
	// With one validated object a hypothesis lifts workers over the
	// MinValidatedAnswers threshold and flags some; with two, it clears some
	// flags. Both directions of the incremental count are exercised.
	for _, validated := range [][]int{{0}, {0, 1}} {
		v := model.NewValidation(12)
		for _, o := range validated {
			v.Set(o, model.Label(o%2))
		}
		ref := buildContext(t, answers, v)
		ref.Detector = detector
		priors := ref.ProbSet.Assignment.Priors()
		for _, deltaScore := range []bool{false, true} {
			for _, parallel := range []bool{false, true} {
				ctx := buildContext(t, answers, v)
				ctx.Detector = detector
				ctx.DeltaScore = deltaScore
				ctx.Parallel = parallel
				ctx.MaxParallelism = 3
				ranked, err := (&WorkerDriven{}).SelectK(ctx, 10)
				if err != nil {
					t.Fatal(err)
				}
				if len(ranked) != 10 {
					t.Fatalf("ranking has %d entries, want 10", len(ranked))
				}
				for _, s := range ranked {
					want, err := ExpectedDetectedFaultyWorkers(ref, s.Object, priors)
					if err != nil {
						t.Fatal(err)
					}
					if s.Score != want {
						t.Fatalf("validated %v delta=%v parallel=%v: object %d scored %v, full recount %v",
							validated, deltaScore, parallel, s.Object, s.Score, want)
					}
					faulty = math.Max(faulty, want)
				}
			}
		}
	}
	if faulty == 0 {
		t.Fatal("no candidate exposes a faulty worker: the comparison is vacuous")
	}
}

// TestUncertaintyDeltaSelectionParity gates delta-scored selection against
// the exact full-EM reference at the documented tolerance: either the same
// object is selected, or the delta pick's exact information gain is within
// 5e-2 of the exact optimum.
func TestUncertaintyDeltaSelectionParity(t *testing.T) {
	const tolerance = 5e-2
	for seed := int64(1); seed <= 4; seed++ {
		answers, _ := mixedCrowdAnswers(t, 16, seed)
		exactCtx := buildContext(t, answers, nil)
		deltaCtx := deltaContext(t, answers, nil)
		u := &UncertaintyDriven{}
		exactPick, err := selectOne(u, exactCtx)
		if err != nil {
			t.Fatal(err)
		}
		deltaPick, err := selectOne(u, deltaCtx)
		if err != nil {
			t.Fatal(err)
		}
		if exactPick == deltaPick {
			continue
		}
		currentH := aggregation.Uncertainty(exactCtx.ProbSet)
		igExact, err := InformationGain(exactCtx, exactPick, currentH)
		if err != nil {
			t.Fatal(err)
		}
		igDelta, err := InformationGain(exactCtx, deltaPick, currentH)
		if err != nil {
			t.Fatal(err)
		}
		if igExact-igDelta > tolerance {
			t.Fatalf("seed %d: delta selected %d (exact IG %v), exact selected %d (IG %v): gap exceeds %v",
				seed, deltaPick, igDelta, exactPick, igExact, tolerance)
		}
	}
}

// TestHybridSelectKDrawParity: SelectK consumes exactly one roulette draw
// whatever k is, so two hybrids with identical seeds stay aligned across
// single (k = 1) and batched selections.
func TestHybridSelectKDrawParity(t *testing.T) {
	answers, _ := mixedCrowdAnswers(t, 10, 2)
	mk := func() *Hybrid { return &Hybrid{Rand: rand.New(rand.NewSource(3))} }
	h1, h2 := mk(), mk()
	h1.UpdateWeight(0.6, 0.4, 0.5)
	h2.UpdateWeight(0.6, 0.4, 0.5)
	for step := 0; step < 6; step++ {
		ctx1 := buildContext(t, answers, nil)
		ctx2 := buildContext(t, answers, nil)
		single, err := selectOne(h1, ctx1)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := h2.SelectK(ctx2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ranked[0].Object != single {
			t.Fatalf("step %d: SelectK(1) = %d, SelectK(3)[0] = %d", step, single, ranked[0].Object)
		}
		if h1.Rand.Int63() != h2.Rand.Int63() {
			t.Fatalf("step %d: pseudo-random streams diverged", step)
		}
	}
}

// TestRandomSelectK: distinct objects, first element matches a single
// selection under the same seed, k clamps to the candidate count.
func TestRandomSelectK(t *testing.T) {
	answers, _ := mixedCrowdAnswers(t, 8, 4)
	ctx := buildContext(t, answers, nil)
	r1 := &Random{Rand: rand.New(rand.NewSource(9))}
	r2 := &Random{Rand: rand.New(rand.NewSource(9))}
	single, err := selectOne(r1, ctx)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := r2.SelectK(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 || ranked[0].Object != single {
		t.Fatalf("SelectK = %v, want first element %d", ranked, single)
	}
	seen := map[int]bool{}
	for _, s := range ranked {
		if seen[s.Object] {
			t.Fatalf("duplicate object in random ranking: %v", ranked)
		}
		seen[s.Object] = true
	}
	all, err := (&Random{}).SelectK(ctx, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 {
		t.Fatalf("clamped ranking has %d entries, want 8", len(all))
	}
}

// TestExactScorersReuseScratchValidation: the exact reference scorers must
// not clone the validation per (candidate, label) — public entry points
// still return identical values to the pre-scratch implementation.
func TestExactScorersReuseScratchValidation(t *testing.T) {
	answers, _ := mixedCrowdAnswers(t, 10, 6)
	ctx := buildContext(t, answers, nil)
	// Reference: literal clone-per-label implementation.
	cloneConditional := func(object int) float64 {
		agg := ctx.aggregator()
		m := ctx.ProbSet.Assignment.NumLabels()
		expected := 0.0
		for l := 0; l < m; l++ {
			p := ctx.ProbSet.Assignment.Prob(object, model.Label(l))
			if p <= 0 {
				continue
			}
			hypo := ctx.ProbSet.Validation.Clone()
			hypo.Set(object, model.Label(l))
			res, err := agg.AggregateContext(ctx.ctx(), ctx.Answers, hypo, ctx.ProbSet)
			if err != nil {
				t.Fatal(err)
			}
			expected += p * aggregation.Uncertainty(res.ProbSet)
		}
		return expected
	}
	for o := 0; o < 5; o++ {
		got, err := ConditionalUncertainty(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		if want := cloneConditional(o); got != want {
			t.Fatalf("object %d: scratch conditional %v != clone-per-label %v", o, got, want)
		}
		// The scratch path must leave the shared validation untouched.
		if ctx.ProbSet.Validation.Validated(o) {
			t.Fatalf("object %d left validated after scoring", o)
		}
	}
	if math.IsNaN(aggregation.Uncertainty(ctx.ProbSet)) {
		t.Fatal("probabilistic state corrupted")
	}
}
