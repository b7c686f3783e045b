package aggregation

import (
	"math"
	"math/rand"
	"testing"

	"crowdval/internal/model"
)

// scoreIndexCrowd builds a binary crowd with varied object ambiguity and one
// random spammer, aggregated to a fixed point.
func scoreIndexCrowd(t testing.TB, n int, seed int64) (*model.AnswerSet, *model.Validation, *Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	answers := model.MustNewAnswerSet(n, 5, 2)
	for o := 0; o < n; o++ {
		truth := model.Label(o % 2)
		for w := 0; w < 4; w++ {
			l := truth
			if rng.Float64() > 0.8 {
				l = model.Label(1 - int(l))
			}
			if err := answers.SetAnswer(o, w, l); err != nil {
				t.Fatal(err)
			}
		}
		if err := answers.SetAnswer(o, 4, model.Label(rng.Intn(2))); err != nil {
			t.Fatal(err)
		}
	}
	validation := model.NewValidation(n)
	validation.Set(0, 0)
	iem := &IncrementalEM{Config: EMConfig{Parallelism: 1}}
	res, err := iem.Aggregate(answers, validation, nil)
	if err != nil {
		t.Fatal(err)
	}
	return answers, validation, res
}

// TestScoreIndexMatchesEntropy: the maintained entropy index is bit-identical
// to recomputing ObjectEntropy/Uncertainty from the assignment matrix.
func TestScoreIndexMatchesEntropy(t *testing.T) {
	answers, _, res := scoreIndexCrowd(t, 24, 1)
	ix := NewScoreIndex(answers, res.ProbSet, EMConfig{})
	for o := 0; o < answers.NumObjects(); o++ {
		if got, want := ix.ObjectEntropy(o), ObjectEntropy(res.ProbSet.Assignment, o); got != want {
			t.Fatalf("entropy index of object %d = %v, recompute = %v", o, got, want)
		}
	}
	if got, want := ix.TotalUncertainty(), Uncertainty(res.ProbSet); got != want {
		t.Fatalf("total uncertainty = %v, want %v", got, want)
	}
	if ix.NumObjects() != answers.NumObjects() {
		t.Fatalf("index covers %d objects, want %d", ix.NumObjects(), answers.NumObjects())
	}
}

// exactConditionalUncertainty is the full-EM reference: re-aggregate per
// hypothetical label, warm-started from the current state.
func exactConditionalUncertainty(t *testing.T, answers *model.AnswerSet, validation *model.Validation, res *Result, object int) float64 {
	t.Helper()
	iem := &IncrementalEM{Config: EMConfig{Parallelism: 1}}
	m := answers.NumLabels()
	expected := 0.0
	for l := 0; l < m; l++ {
		p := res.ProbSet.Assignment.Prob(object, model.Label(l))
		if p <= 0 {
			continue
		}
		hypo := validation.Clone()
		hypo.Set(object, model.Label(l))
		r, err := iem.Aggregate(answers, hypo, res.ProbSet)
		if err != nil {
			t.Fatal(err)
		}
		expected += p * Uncertainty(r.ProbSet)
	}
	return expected
}

// TestHypoConditionalUncertaintyAgreesWithExact gates the delta scorer's
// approximation: per candidate, the frontier-restricted estimate must stay
// within the documented tolerance of the exact full-EM H(P | o), and the
// candidate the delta scorer would select must be exact-optimal within the
// same tolerance on information gain. 5e-2 mirrors the delta-ingest parity
// tolerance of PR 4.
func TestHypoConditionalUncertaintyAgreesWithExact(t *testing.T) {
	const tolerance = 5e-2
	answers, validation, res := scoreIndexCrowd(t, 20, 3)
	ix := NewScoreIndex(answers, res.ProbSet, EMConfig{})
	sc := ix.NewHypoScratch()

	candidates := validation.UnvalidatedObjects()
	bestExact, bestExactIG := -1, math.Inf(-1)
	bestDelta, bestDeltaIG := -1, math.Inf(-1)
	exactIG := make(map[int]float64, len(candidates))
	for _, o := range candidates {
		exact := exactConditionalUncertainty(t, answers, validation, res, o)
		delta := sc.ConditionalUncertainty(o)
		if diff := math.Abs(exact - delta); diff > tolerance {
			t.Fatalf("object %d: delta H(P|o) = %v, exact = %v (diff %v > %v)", o, delta, exact, diff, tolerance)
		}
		exactIG[o] = ix.TotalUncertainty() - exact
		if ig := exactIG[o]; ig > bestExactIG {
			bestExact, bestExactIG = o, ig
		}
		if ig := ix.TotalUncertainty() - delta; ig > bestDeltaIG {
			bestDelta, bestDeltaIG = o, ig
		}
	}
	if bestExact != bestDelta && bestExactIG-exactIG[bestDelta] > tolerance {
		t.Fatalf("delta scorer selects %d (exact IG %v), exact best is %d (IG %v): gap exceeds %v",
			bestDelta, exactIG[bestDelta], bestExact, bestExactIG, tolerance)
	}
}

// TestHypoScratchZeroAllocsPerCandidate asserts the delta scorer allocates
// nothing per scored candidate once its scratch buffers are warm — the
// property that keeps large NextObject calls off the garbage collector.
func TestHypoScratchZeroAllocsPerCandidate(t *testing.T) {
	answers, validation, res := scoreIndexCrowd(t, 64, 7)
	ix := NewScoreIndex(answers, res.ProbSet, EMConfig{})
	sc := ix.NewHypoScratch()
	candidates := validation.UnvalidatedObjects()
	// Warm the scratch so the per-degree block buffer has grown.
	for _, o := range candidates {
		sc.ConditionalUncertainty(o)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		sc.ConditionalUncertainty(candidates[i%len(candidates)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("delta scorer allocates %.1f objects per candidate, want 0", allocs)
	}
}

// TestHypoValidatedObjectsStayPinned: the ripple pass must not touch
// validated objects — their rows are pinned point masses with zero entropy
// under any hypothesis.
func TestHypoValidatedObjectsStayPinned(t *testing.T) {
	answers, validation, res := scoreIndexCrowd(t, 16, 11)
	ix := NewScoreIndex(answers, res.ProbSet, EMConfig{})
	sc := ix.NewHypoScratch()
	// Object 0 is validated; every worker answered it, so it is in the
	// ripple set of every candidate. Its entropy contribution must be zero
	// on both sides, i.e. the estimate never goes negative and stays within
	// the total.
	for _, o := range validation.UnvalidatedObjects() {
		h := sc.ConditionalUncertainty(o)
		if h < 0 || math.IsNaN(h) {
			t.Fatalf("conditional uncertainty of object %d = %v", o, h)
		}
	}
}
