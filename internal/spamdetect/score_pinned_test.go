package spamdetect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crowdval/internal/model"
)

// scoreOf returns the score of a SpammerScore call. Its variadic tail also
// accepts the (float64, error) results of the general SVD library that
// computed the scores before the Jacobi kernel, so this file compiles, and
// its table can be checked, against both.
func scoreOf(score float64, _ ...any) float64 { return score }

type pinnedScoreCase struct {
	name string
	c    *model.ConfusionMatrix
}

// pinnedScoreCases are the matrices whose scores TestSpammerScoreBitsPinned
// fixes bit for bit: for m = 2…5 the identity, the uniform matrix, a matrix
// with one row left uniform by ValidationConfusion's normalization, a
// rank-one matrix and one 1e-7 away from it, the 0.7-accuracy worker and
// seeded random row-stochastic matrices, plus the three workers of the
// Table 2 fixture.
func pinnedScoreCases(t *testing.T) []pinnedScoreCase {
	var cases []pinnedScoreCase
	add := func(name string, c *model.ConfusionMatrix) {
		cases = append(cases, pinnedScoreCase{name, c})
	}
	for m := 2; m <= 5; m++ {
		add(fmt.Sprintf("m%d/identity", m), model.NewDiagonalConfusionMatrix(m, 1))
		add(fmt.Sprintf("m%d/uniform", m), model.NewUniformConfusionMatrix(m))

		// Every row but the last is observed; NormalizeRows turns the last
		// into the uniform distribution, as ValidationConfusion does.
		c := model.NewConfusionMatrix(m)
		for l := 0; l < m-1; l++ {
			c.Add(model.Label(l), model.Label(l), 3)
			c.Add(model.Label(l), model.Label((l+1)%m), 1)
		}
		c.NormalizeRows()
		add(fmt.Sprintf("m%d/uniform-row", m), c)

		c = model.NewConfusionMatrix(m)
		for l := 0; l < m; l++ {
			for j := 0; j < m; j++ {
				c.Set(model.Label(l), model.Label(j), float64(j+1))
			}
		}
		c.NormalizeRows()
		add(fmt.Sprintf("m%d/rank-one", m), c)
		c = c.Clone()
		c.Add(0, 0, 1e-7)
		add(fmt.Sprintf("m%d/near-rank-one", m), c)

		add(fmt.Sprintf("m%d/accuracy-0.7", m), model.NewDiagonalConfusionMatrix(m, 0.7))

		for i := 0; i < 4; i++ {
			rng := rand.New(rand.NewSource(int64(100*m + i)))
			c = model.NewConfusionMatrix(m)
			for l := 0; l < m; l++ {
				for j := 0; j < m; j++ {
					c.Set(model.Label(l), model.Label(j), rng.Float64())
				}
			}
			c.NormalizeRows()
			add(fmt.Sprintf("m%d/random-%d", m, i), c)
		}
	}
	a, v := paperWorkersAnswerSet(t)
	for w := 0; w < a.NumWorkers(); w++ {
		c, _ := ValidationConfusion(a, v, w)
		add(fmt.Sprintf("paper/worker-%d", w), c)
	}
	return cases
}

// pinnedScoreBits are the math.Float64bits of the scores of
// pinnedScoreCases, recorded with the general SVD library.
var pinnedScoreBits = map[string]uint64{
	"m2/identity":      0x3ff0000000000000, // 1
	"m2/uniform":       0x0000000000000000, // 0
	"m2/uniform-row":   0x3fcefce506940934, // 0.24209273167805068
	"m2/rank-one":      0x0000000000000000, // 0
	"m2/near-rank-one": 0x3e70fa33816b073d, // 6.32455513334305e-08
	"m2/accuracy-0.7":  0x3fd9999999999997, // 0.39999999999999986
	"m2/random-0":      0x3fc72390b8b7c6a1, // 0.18077286738803358
	"m2/random-1":      0x3fdc3e15df4e158a, // 0.4412893944466637
	"m2/random-2":      0x3fd4c3bee5668554, // 0.32444736864461743
	"m2/random-3":      0x3f8d955a1316c5d8, // 0.014445022304104535
	"m3/identity":      0x3ff6a09e667f3bcd, // 1.4142135623730951
	"m3/uniform":       0x0000000000000000, // 0
	"m3/uniform-row":   0x3fe6352c5722ebea, // 0.6939908697016766
	"m3/rank-one":      0x0000000000000000, // 0
	"m3/near-rank-one": 0x3e751ed1c6d09ce0, // 7.867957814486764e-08
	"m3/accuracy-0.7":  0x3fe8e3e170bf282d, // 0.7778174593052022
	"m3/random-0":      0x3fc821ce8c627947, // 0.18853170256347537
	"m3/random-1":      0x3fdf8ebb7f47b04d, // 0.49308669500056085
	"m3/random-2":      0x3fd828d7323f606c, // 0.37749271304119847
	"m3/random-3":      0x3fe406d929e0711b, // 0.6258359735398104
	"m4/identity":      0x3ffbb67ae8584caa, // 1.7320508075688772
	"m4/uniform":       0x0000000000000000, // 0
	"m4/uniform-row":   0x3ff028c1b9f183b9, // 1.0099503768362708
	"m4/rank-one":      0x0000000000000000, // 0
	"m4/near-rank-one": 0x3e76db40a7564ffd, // 8.514693113629468e-08
	"m4/accuracy-0.7":  0x3ff0a0b02501c798, // 1.039230484541326
	"m4/random-0":      0x3fda994b90ad7076, // 0.41560639504110186
	"m4/random-1":      0x3fd53642dc115785, // 0.3314368390177765
	"m4/random-2":      0x3fdc5ab41943020c, // 0.4430361029335763
	"m4/random-3":      0x3fd69f681f402d67, // 0.3534794144804522
	"m5/identity":      0x4000000000000000, // 2
	"m5/uniform":       0x0000000000000000, // 0
	"m5/uniform-row":   0x3ff43dc2fafab9c7, // 1.2650785259134965
	"m5/rank-one":      0x0000000000000000, // 0
	"m5/near-rank-one": 0x3e77ca52d8b88b20, // 8.862587302280131e-08
	"m5/accuracy-0.7":  0x3ff3ffffffffffff, // 1.2499999999999998
	"m5/random-0":      0x3fe1d7ae988f0166, // 0.5575783710155917
	"m5/random-1":      0x3fe00c457b587125, // 0.5014979752627694
	"m5/random-2":      0x3fdf6a7065c17953, // 0.49087152421079344
	"m5/random-3":      0x3fdd49a668cb867f, // 0.4576202414883496
	"paper/worker-0":   0x0000000000000000, // 0
	"paper/worker-1":   0x0000000000000000, // 0
	"paper/worker-2":   0x3ff0000000000000, // 1
}

// TestSpammerScoreBitsPinned: the spammer score of every pinned matrix is
// bit-identical to the recorded table. Detection flags, quarantines and the
// paper's figures all branch on these scores, so any change of the kernel's
// arithmetic shows here first.
func TestSpammerScoreBitsPinned(t *testing.T) {
	cases := pinnedScoreCases(t)
	if len(cases) != len(pinnedScoreBits) {
		t.Fatalf("%d cases, %d pinned scores", len(cases), len(pinnedScoreBits))
	}
	for _, tc := range cases {
		want, ok := pinnedScoreBits[tc.name]
		if !ok {
			t.Fatalf("%s: no pinned score", tc.name)
		}
		got := scoreOf(SpammerScore(tc.c))
		if math.Float64bits(got) != want {
			t.Errorf("%s: score %v (bits %#016x), pinned %v (bits %#016x)",
				tc.name, got, math.Float64bits(got), math.Float64frombits(want), want)
		}
	}
}
