package spamdetect

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crowdval/internal/model"
)

// matrixOf returns the m×m matrix with the given row-major entries.
func matrixOf(m int, entries []float64) *model.ConfusionMatrix {
	c := model.NewConfusionMatrix(m)
	for i, x := range entries {
		c.Set(model.Label(i/m), model.Label(i%m), x)
	}
	return c
}

// outer returns the rank-one matrix u·vᵀ.
func outer(u, v []float64) *model.ConfusionMatrix {
	entries := make([]float64, 0, len(u)*len(v))
	for _, ui := range u {
		for _, vj := range v {
			entries = append(entries, ui*vj)
		}
	}
	return matrixOf(len(u), entries)
}

func frobenius(c *model.ConfusionMatrix) float64 {
	sum := 0.0
	for _, x := range c.Dense() {
		sum += x * x
	}
	return math.Sqrt(sum)
}

func randomMatrix(rng *rand.Rand, m int) *model.ConfusionMatrix {
	entries := make([]float64, m*m)
	for i := range entries {
		entries[i] = rng.NormFloat64()
	}
	return matrixOf(m, entries)
}

func TestSpammerScoreRankOneIsZero(t *testing.T) {
	for name, c := range map[string]*model.ConfusionMatrix{
		"outer product": outer([]float64{1.5, 2}, []float64{1 / math.Sqrt2, 1 / math.Sqrt2}),
		"outer 4x4":     outer([]float64{0.1, -2, 3, 0.5}, []float64{1, 0.25, -0.5, 2}),
		"1x1":           matrixOf(1, []float64{3}),
	} {
		if s := SpammerScore(c); s > 1e-9 {
			t.Errorf("%s: score %v, want 0", name, s)
		}
	}
}

func TestSpammerScoreZeroMatrix(t *testing.T) {
	for m := 1; m <= 5; m++ {
		if s := SpammerScore(model.NewConfusionMatrix(m)); s != 0 {
			t.Errorf("%dx%d zero matrix: score %v, want 0", m, m, s)
		}
	}
}

// A uniform spammer puts all mass in one column and a random spammer has
// identical rows: both confusion matrices are rank one and score 0, while a
// reliable worker's near-identity matrix is far from rank one.
func TestSpammerScoreSpammersAreRankOne(t *testing.T) {
	for name, c := range map[string]*model.ConfusionMatrix{
		"uniform spammer": matrixOf(2, []float64{0, 1, 0, 1}),
		"random spammer":  matrixOf(2, []float64{0.5, 0.5, 0.5, 0.5}),
		"uniform 3x3":     matrixOf(3, []float64{0, 0, 1, 0, 0, 1, 0, 0, 1}),
		"random 3x3":      matrixOf(3, []float64{0.2, 0.3, 0.5, 0.2, 0.3, 0.5, 0.2, 0.3, 0.5}),
	} {
		if s := SpammerScore(c); s > 1e-10 {
			t.Errorf("%s: score %v, want 0", name, s)
		}
	}
	if s := SpammerScore(matrixOf(2, []float64{0.95, 0.05, 0.05, 0.95})); s < 0.5 {
		t.Errorf("reliable worker: score %v, want > 0.5", s)
	}
}

func TestSpammerScoreKnownValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *model.ConfusionMatrix
		want float64
	}{
		// diag(3, 2) has singular values 3 and 2.
		{"diag(3,2)", matrixOf(2, []float64{3, 0, 0, 2}), 2},
		{"anti-diagonal", matrixOf(2, []float64{0, 1, 1, 0}), 1},
		// Singular values 1 and 0.9.
		{"reliable worker", matrixOf(2, []float64{0.95, 0.05, 0.05, 0.95}), 0.9},
		{"identity 3", model.NewDiagonalConfusionMatrix(3, 1), math.Sqrt2},
		{"identity 5", model.NewDiagonalConfusionMatrix(5, 1), 2},
	} {
		if got := SpammerScore(tc.c); math.Abs(got-tc.want) > 1e-10 {
			t.Errorf("%s: score %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Property: Eckart–Young — no rank-one matrix x·yᵀ is closer to F than the
// score says the closest one is.
func TestSpammerScoreEckartYoung(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(4)
		c := randomMatrix(rng, m)
		best := SpammerScore(c)
		entries := c.Dense()
		for trial := 0; trial < 10; trial++ {
			x, y := make([]float64, m), make([]float64, m)
			for i := range x {
				x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			competitor := outer(x, y).Dense()
			residual := make([]float64, len(entries))
			for i := range residual {
				residual[i] = entries[i] - competitor[i]
			}
			if frobenius(matrixOf(m, residual)) < best-1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the score is a norm of singular values, so s(a·F) = |a|·s(F).
func TestSpammerScoreScaling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(4)
		c := randomMatrix(rng, m)
		s := SpammerScore(c)
		for _, a := range []float64{-3, 1e-3, 0.5, 7} {
			scaled := c.Dense()
			for i := range scaled {
				scaled[i] *= a
			}
			if got := SpammerScore(matrixOf(m, scaled)); math.Abs(got-math.Abs(a)*s) > 1e-9*(1+math.Abs(a)*s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSpammerScore checks the score of small matrices with entries in
// [-8, 8): it is finite and lies in [0, ‖F‖_F], it does not change when the
// same permutation is applied to rows and columns, and it is 0 for the
// rank-one product of the first two rows.
func FuzzSpammerScore(f *testing.F) {
	f.Add(uint8(2), int64(1), []byte{16, 0, 0, 16})
	f.Add(uint8(3), int64(2), []byte{8, 4, 4, 0, 16, 0, 2, 2, 12})
	f.Add(uint8(5), int64(3), []byte("the spammer score of a confusion matrix"))
	f.Fuzz(func(t *testing.T, size uint8, seed int64, raw []byte) {
		m := 1 + int(size)%6
		entries := make([]float64, m*m)
		for i := range entries {
			if i < len(raw) {
				entries[i] = float64(int8(raw[i])) / 16
			}
		}
		c := matrixOf(m, entries)
		s, norm := SpammerScore(c), frobenius(c)
		if math.IsNaN(s) || s < 0 || s > norm*(1+1e-12) {
			t.Fatalf("score %v outside [0, %v] for %v", s, norm, entries)
		}

		perm := rand.New(rand.NewSource(seed)).Perm(m)
		permuted := make([]float64, m*m)
		for i := range m {
			for j := range m {
				permuted[i*m+j] = entries[perm[i]*m+perm[j]]
			}
		}
		if got := SpammerScore(matrixOf(m, permuted)); math.Abs(got-s) > 1e-9*(1+norm) {
			t.Fatalf("permutation %v moved the score from %v to %v for %v", perm, s, got, entries)
		}

		u, v := entries[:m], entries[:m]
		if m > 1 {
			v = entries[m : 2*m]
		}
		if got := SpammerScore(outer(u, v)); got > 1e-9 {
			t.Fatalf("rank-one %v·%vᵀ scored %v", u, v, got)
		}
	})
}
