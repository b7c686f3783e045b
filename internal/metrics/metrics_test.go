package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"crowdval/internal/model"
)

func TestPrecision(t *testing.T) {
	d := model.DeterministicAssignment{0, 1, 1, 0}
	g := model.DeterministicAssignment{0, 1, 0, 0}
	if got := Precision(d, g); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Precision = %v, want 0.75", got)
	}
	// Unknown ground truth entries are skipped.
	g2 := model.DeterministicAssignment{0, model.NoLabel, 0, 0}
	if got := Precision(d, g2); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("Precision with NoLabel truth = %v", got)
	}
	if Precision(nil, nil) != 0 {
		t.Fatal("empty precision should be 0")
	}
	if Precision(d, g[:2]) != 0 {
		t.Fatal("length mismatch should be 0")
	}
	allUnknown := model.DeterministicAssignment{model.NoLabel, model.NoLabel, model.NoLabel, model.NoLabel}
	if Precision(d, allUnknown) != 0 {
		t.Fatal("all-unknown truth should be 0")
	}
}

func TestPrecisionImprovement(t *testing.T) {
	if got := PrecisionImprovement(0.9, 0.8); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("improvement = %v, want 0.5", got)
	}
	if got := PrecisionImprovement(0.7, 0.8); got != 0 {
		t.Fatalf("negative improvement should clamp to 0, got %v", got)
	}
	if got := PrecisionImprovement(1, 1); got != 1 {
		t.Fatalf("perfect-to-perfect = %v, want 1", got)
	}
	if got := PrecisionImprovement(0.9, 1); got != 0 {
		t.Fatalf("degraded from perfect = %v, want 0", got)
	}
}

func TestPrecisionRecall(t *testing.T) {
	p, r := PrecisionRecall([]int{1, 2, 3}, []int{2, 3, 4, 5})
	if math.Abs(p-2.0/3.0) > 1e-12 || math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("P/R = %v/%v", p, r)
	}
	p, r = PrecisionRecall(nil, []int{1})
	if p != 1 || r != 0 {
		t.Fatalf("no predictions: P/R = %v/%v", p, r)
	}
	p, r = PrecisionRecall([]int{1}, nil)
	if p != 0 || r != 1 {
		t.Fatalf("no actual positives: P/R = %v/%v", p, r)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("an empty slice should give 0")
	}
}

func TestPearsonCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ysPos := []float64{2, 4, 6, 8, 10}
	ysNeg := []float64{10, 8, 6, 4, 2}
	if got, err := PearsonCorrelation(xs, ysPos); err != nil || math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect positive correlation = %v (%v)", got, err)
	}
	if got, err := PearsonCorrelation(xs, ysNeg); err != nil || math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect negative correlation = %v (%v)", got, err)
	}
	if _, err := PearsonCorrelation(xs, ysPos[:3]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := PearsonCorrelation([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := PearsonCorrelation([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0.05, 0.15, 0.95, 1.2, -0.3}, 10)
	if len(h) != 10 {
		t.Fatalf("bins = %d", len(h))
	}
	if math.Abs(h[0]-0.4) > 1e-12 { // 0.05 and clamped -0.3
		t.Fatalf("bin 0 = %v", h[0])
	}
	if math.Abs(h[9]-0.4) > 1e-12 { // 0.95 and clamped 1.2
		t.Fatalf("bin 9 = %v", h[9])
	}
	if math.Abs(h[1]-0.2) > 1e-12 {
		t.Fatalf("bin 1 = %v", h[1])
	}
	if Histogram(nil, 0) != nil {
		t.Fatal("zero bins should give nil")
	}
	empty := Histogram(nil, 3)
	if len(empty) != 3 || empty[0] != 0 {
		t.Fatal("empty values should give zero bins")
	}
}

func TestSensitivitySpecificity(t *testing.T) {
	a := model.MustNewAnswerSet(4, 1, 2)
	truth := model.DeterministicAssignment{1, 1, 0, 0}
	// Worker answers: TP, FN, TN, FP.
	for o, l := range []model.Label{1, 0, 0, 1} {
		if err := a.SetAnswer(o, 0, l); err != nil {
			t.Fatal(err)
		}
	}
	sens, spec := SensitivitySpecificity(a, 0, truth)
	if math.Abs(sens-0.5) > 1e-12 || math.Abs(spec-0.5) > 1e-12 {
		t.Fatalf("sens/spec = %v/%v", sens, spec)
	}
	// Worker with no answers.
	b := model.MustNewAnswerSet(4, 1, 2)
	sens, spec = SensitivitySpecificity(b, 0, truth)
	if sens != 0 || spec != 0 {
		t.Fatalf("no answers should give 0/0, got %v/%v", sens, spec)
	}
}

// Property: precision is always within [0, 1] and equals 1 iff the assignment
// matches the truth on every known object.
func TestPrecisionBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		d := make(model.DeterministicAssignment, n)
		g := make(model.DeterministicAssignment, n)
		for i := 0; i < n; i++ {
			d[i] = model.Label(int(raw[i]) % 3)
			g[i] = model.Label(int(raw[n+i]) % 3)
		}
		p := Precision(d, g)
		if p < 0 || p > 1 {
			return false
		}
		allMatch := true
		for i := 0; i < n; i++ {
			if d[i] != g[i] {
				allMatch = false
				break
			}
		}
		if allMatch && p != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
