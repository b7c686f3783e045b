package aggregation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdval/internal/model"
)

// randomSparseAnswers generates a seeded random sparse answer set with
// roughly perObject answers per object, plus a validation covering a
// fraction of the objects. It deliberately avoids the simulation package so
// the equivalence tests depend only on the code under test.
func randomSparseAnswers(t testing.TB, n, k, m, perObject int, validated float64, seed int64) (*model.AnswerSet, *model.Validation) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := model.MustNewAnswerSet(n, k, m)
	for o := 0; o < n; o++ {
		for i := 0; i < perObject; i++ {
			w := rng.Intn(k)
			if err := a.SetAnswer(o, w, model.Label(rng.Intn(m))); err != nil {
				t.Fatal(err)
			}
		}
	}
	v := model.NewValidation(n)
	for o := 0; o < n; o++ {
		if rng.Float64() < validated {
			v.Set(o, model.Label(rng.Intn(m)))
		}
	}
	return a, v
}

// assertBitwiseEqual fails unless the two results are identical down to the
// last float bit: same iteration count, same assignment matrix, same
// confusion matrices.
func assertBitwiseEqual(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("iterations/converged = %d/%v, want %d/%v",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	gu, wu := got.ProbSet.Assignment, want.ProbSet.Assignment
	if gu.NumObjects() != wu.NumObjects() || gu.NumLabels() != wu.NumLabels() {
		t.Fatalf("assignment dims %dx%d, want %dx%d", gu.NumObjects(), gu.NumLabels(), wu.NumObjects(), wu.NumLabels())
	}
	for o := 0; o < gu.NumObjects(); o++ {
		for l := 0; l < gu.NumLabels(); l++ {
			if gu.Prob(o, model.Label(l)) != wu.Prob(o, model.Label(l)) {
				t.Fatalf("assignment (%d, %d) = %v, want %v (not bitwise equal)",
					o, l, gu.Prob(o, model.Label(l)), wu.Prob(o, model.Label(l)))
			}
		}
	}
	if len(got.ProbSet.Confusions) != len(want.ProbSet.Confusions) {
		t.Fatalf("%d confusions, want %d", len(got.ProbSet.Confusions), len(want.ProbSet.Confusions))
	}
	for w := range got.ProbSet.Confusions {
		gc, wc := got.ProbSet.Confusions[w], want.ProbSet.Confusions[w]
		m := gc.NumLabels()
		for l := 0; l < m; l++ {
			for l2 := 0; l2 < m; l2++ {
				if gc.At(model.Label(l), model.Label(l2)) != wc.At(model.Label(l), model.Label(l2)) {
					t.Fatalf("confusion of worker %d at (%d, %d) differs", w, l, l2)
				}
			}
		}
	}
}

// TestParallelEMBitwiseEqualsSerial asserts the central determinism contract
// of the sharded E-/M-steps: for every aggregator and every parallelism
// degree the result is bit-for-bit the serial result.
func TestParallelEMBitwiseEqualsSerial(t *testing.T) {
	shapes := []struct{ n, k, m, per int }{
		{60, 15, 2, 4},
		{150, 40, 3, 6},
		{301, 57, 4, 5}, // sizes not divisible by the shard counts
	}
	// aggregator is the method set every aggregator of the package shares.
	type aggregator interface {
		Aggregate(*model.AnswerSet, *model.Validation, *model.ProbabilisticAnswerSet) (*Result, error)
	}
	builders := []struct {
		name  string
		build func(parallelism int) aggregator
	}{
		{"batch-mv", func(p int) aggregator {
			return &BatchEM{Config: EMConfig{Parallelism: p}}
		}},
		{"batch-random", func(p int) aggregator {
			return &BatchEM{Init: InitRandom, Rand: rand.New(rand.NewSource(5)), Config: EMConfig{Parallelism: p}}
		}},
		{"incremental-cold", func(p int) aggregator {
			return &IncrementalEM{Config: EMConfig{Parallelism: p}}
		}},
		{"majority-voting", func(p int) aggregator {
			return &MajorityVoting{Parallelism: p}
		}},
	}
	for si, shape := range shapes {
		answers, validation := randomSparseAnswers(t, shape.n, shape.k, shape.m, shape.per, 0.2, int64(100+si))
		for _, b := range builders {
			serial, err := b.build(1).Aggregate(answers, validation, nil)
			if err != nil {
				t.Fatalf("%s serial: %v", b.name, err)
			}
			for _, p := range []int{2, 3, 8} {
				t.Run(fmt.Sprintf("%s/n%d/p%d", b.name, shape.n, p), func(t *testing.T) {
					parallel, err := b.build(p).Aggregate(answers, validation, nil)
					if err != nil {
						t.Fatal(err)
					}
					assertBitwiseEqual(t, parallel, serial)
				})
			}
		}
	}
}

// TestParallelWarmStartBitwiseEqualsSerial covers the i-EM warm start — the
// pay-as-you-go hot path: aggregate, add one validation, re-aggregate from
// the previous probabilistic answer set.
func TestParallelWarmStartBitwiseEqualsSerial(t *testing.T) {
	answers, validation := randomSparseAnswers(t, 200, 30, 3, 5, 0.1, 42)
	run := func(p int) *Result {
		iem := &IncrementalEM{Config: EMConfig{Parallelism: p}}
		res, err := iem.Aggregate(answers, validation, nil)
		if err != nil {
			t.Fatal(err)
		}
		v2 := validation.Clone()
		for o := 0; o < answers.NumObjects(); o++ {
			if v2.Get(o) == model.NoLabel {
				v2.Set(o, 1)
				break
			}
		}
		warm, err := iem.Aggregate(answers, v2, res.ProbSet)
		if err != nil {
			t.Fatal(err)
		}
		return warm
	}
	serial := run(1)
	for _, p := range []int{2, 4, 8} {
		assertBitwiseEqual(t, run(p), serial)
	}
}

// TestPosteriorRowSkipsExpOfMaximumBitExact: posteriorRowInto writes 1 for
// the maximal entry instead of calling exp(0), which must leave every row
// bit-identical to the exp-everything formula — on EM fixed points of seeded
// crowds, on rows whose maxima all tie (uniform priors and every worker's
// log F(l, a) independent of l), and on rows within 1e-12 of a tie.
func TestPosteriorRowSkipsExpOfMaximumBitExact(t *testing.T) {
	if math.Exp(0) != 1 || math.Exp(math.Copysign(0, -1)) != 1 {
		t.Fatal("math.Exp(±0) is not exactly 1")
	}
	const n, k = 120, 12
	for _, m := range []int{2, 3, 5} {
		answers, validation := randomSparseAnswers(t, n, k, m, 3, 0.1, int64(m))
		res, err := (&IncrementalEM{Config: EMConfig{Parallelism: 1}}).Aggregate(answers, validation, nil)
		if err != nil {
			t.Fatal(err)
		}
		fitted, priors := make([]float64, k*m*m), make([]float64, m)
		for w, c := range res.ProbSet.Confusions {
			fillLogConfBlock(fitted[w*m*m:(w+1)*m*m], c, m)
		}
		fillLogPriors(priors, res.ProbSet.Assignment)
		uniform, nearTie, flat := make([]float64, m), make([]float64, m), make([]float64, k*m*m)
		rng := rand.New(rand.NewSource(int64(m)))
		for l := range uniform {
			uniform[l] = math.Log(1 / float64(m))
			nearTie[l] = uniform[l] - float64(l)*1e-12
		}
		for i := 0; i < k*m; i++ { // i = w·m + a
			v := math.Log(rng.Float64())
			for l := 0; l < m; l++ {
				flat[(i/m)*m*m+l*m+i%m] = v
			}
		}

		got, want := make([]float64, m), make([]float64, m)
		for ti, tables := range [][2][]float64{{priors, fitted}, {uniform, flat}, {nearTie, flat}} {
			for o := 0; o < n; o++ {
				posteriorRowInto(got, answers, validation, o, m, tables[0], tables[1])
				// The exp-everything formula, on the same logits.
				copy(want, tables[0])
				for _, wa := range answers.ObjectView(o) {
					for l := 0; l < m; l++ {
						want[l] += tables[1][wa.Worker*m*m+l*m+int(wa.Label)]
					}
				}
				maxLog, sum := slices.Max(want), 0.0
				for l := range want {
					want[l] = math.Exp(want[l] - maxLog)
					sum += want[l]
				}
				for l := range want {
					want[l] /= sum
				}
				if validation.Get(o) != model.NoLabel {
					continue
				}
				for l := range got {
					if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
						t.Fatalf("m=%d object %d: row %v, exp formula %v", m, o, got, want)
					}
					if ti == 1 && want[l] != want[0] {
						t.Fatalf("m=%d object %d: flat tables gave untied row %v", m, o, want)
					}
				}
			}
		}
	}
}
