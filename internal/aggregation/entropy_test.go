package aggregation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crowdval/internal/model"
)

func TestObjectEntropy(t *testing.T) {
	u := model.NewAssignmentMatrix(3, 4)
	// Uniform distribution over 4 labels: entropy = ln 4.
	if got := ObjectEntropy(u, 0); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform entropy = %v, want %v", got, math.Log(4))
	}
	u.SetCertain(1, 2)
	if got := ObjectEntropy(u, 1); got != 0 {
		t.Fatalf("point mass entropy = %v, want 0", got)
	}
	u.SetRow(2, []float64{0.5, 0.5, 0, 0})
	if got := ObjectEntropy(u, 2); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("binary entropy = %v, want %v", got, math.Log(2))
	}
}

func TestUncertaintySumsObjectEntropies(t *testing.T) {
	a := model.MustNewAnswerSet(2, 1, 2)
	p := model.NewProbabilisticAnswerSet(a)
	p.Assignment.SetCertain(0, 1)
	p.Assignment.SetRow(1, []float64{0.5, 0.5})
	if got := Uncertainty(p); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("Uncertainty = %v, want %v", got, math.Log(2))
	}
}

func TestCorrectLabelProbabilities(t *testing.T) {
	a := model.MustNewAnswerSet(3, 1, 2)
	p := model.NewProbabilisticAnswerSet(a)
	p.Assignment.SetRow(0, []float64{0.8, 0.2})
	p.Assignment.SetRow(1, []float64{0.3, 0.7})
	truth := model.DeterministicAssignment{0, 1, model.NoLabel}
	probs := CorrectLabelProbabilities(p, truth)
	if len(probs) != 2 {
		t.Fatalf("probs = %v", probs)
	}
	if math.Abs(probs[0]-0.8) > 1e-12 || math.Abs(probs[1]-0.7) > 1e-12 {
		t.Fatalf("probs = %v", probs)
	}
	// Truth shorter than objects: extra objects skipped.
	short := CorrectLabelProbabilities(p, model.DeterministicAssignment{0})
	if len(short) != 1 {
		t.Fatalf("short truth probs = %v", short)
	}
}

// Property: for any aggregated probabilistic answer set, uncertainty is
// non-negative, bounded by n·log(m), and zero exactly when every row is a
// point mass.
func TestUncertaintyBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		k := 2 + rng.Intn(5)
		a := model.MustNewAnswerSet(n, k, 3)
		for o := 0; o < n; o++ {
			for w := 0; w < k; w++ {
				if rng.Float64() < 0.7 {
					if err := a.SetAnswer(o, w, model.Label(rng.Intn(3))); err != nil {
						return false
					}
				}
			}
		}
		em := &BatchEM{}
		res, err := em.Aggregate(a, nil, nil)
		if err != nil {
			return false
		}
		h := Uncertainty(res.ProbSet)
		maxH := float64(n) * math.Log(3)
		return h >= 0 && h <= maxH+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every EM aggregation yields a structurally valid probabilistic
// answer set (distributions and row-stochastic confusion matrices).
func TestEMValidityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		k := 2 + rng.Intn(6)
		m := 2 + rng.Intn(3)
		a := model.MustNewAnswerSet(n, k, m)
		for o := 0; o < n; o++ {
			for w := 0; w < k; w++ {
				if rng.Float64() < 0.8 {
					if err := a.SetAnswer(o, w, model.Label(rng.Intn(m))); err != nil {
						return false
					}
				}
			}
		}
		v := model.NewValidation(n)
		for o := 0; o < n; o++ {
			if rng.Float64() < 0.2 {
				v.Set(o, model.Label(rng.Intn(m)))
			}
		}
		iem := &IncrementalEM{}
		res, err := iem.Aggregate(a, v, nil)
		if err != nil {
			return false
		}
		if res.ProbSet.Validate() != nil {
			return false
		}
		// A second incremental round from the previous state must stay valid.
		res2, err := iem.Aggregate(a, v, res.ProbSet)
		if err != nil {
			return false
		}
		return res2.ProbSet.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
