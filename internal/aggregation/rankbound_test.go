package aggregation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crowdval/internal/model"
	"crowdval/internal/simulation"
)

// These tests pin RankBound, the upper bound on a candidate's information
// gain that lets a ranking skip scoring candidates that cannot win: on every
// unvalidated object of each crowd the bound must be at least the gain the
// scorer computes, compared as floats.

// hypoScorerCrowd builds the BenchmarkHypoScorer crowd — 10 000 objects, 200
// workers, five answers per object, 75% normal workers of accuracy 0.7 and
// 25% random spammers — with every (n/validated)-th object validated to its
// true label, aggregated to a fixed point.
func hypoScorerCrowd(tb testing.TB, m, validated int) (*Result, EMConfig) {
	tb.Helper()
	const n = 10000
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects: n, NumWorkers: 200, NumLabels: m, AnswersPerObject: 5,
		NormalAccuracy: 0.7, Mix: simulation.WorkerMix{Normal: 0.75, RandomSpammer: 0.25}, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	validation := model.NewValidation(n)
	for i := 0; i < validated; i++ {
		o := i * (n / validated)
		validation.Set(o, d.Truth[o])
	}
	cfg := EMConfig{Parallelism: 1}
	res, err := (&IncrementalEM{Config: cfg}).Aggregate(d.Answers, validation, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return res, cfg
}

// checkRankBound compares the bound with the scorer's gain on every
// unvalidated object of res and returns the smallest slack seen.
func checkRankBound(t testing.TB, name string, res *Result, cfg EMConfig) float64 {
	t.Helper()
	ix := NewScoreIndex(res.ProbSet.Answers, res.ProbSet, cfg)
	sc := ix.NewHypoScratch()
	if !ix.EnsureRankBounds() {
		t.Fatalf("%s: a binary index carries no rank-bound tables", name)
	}
	minSlack := math.Inf(1)
	for _, o := range res.ProbSet.Validation.UnvalidatedObjects() {
		gain := ix.TotalUncertainty() - sc.ConditionalUncertainty(o)
		bound := sc.RankBound(o)
		if !(bound >= gain) {
			t.Fatalf("%s object %d: bound %v below the computed gain %v", name, o, bound, gain)
		}
		minSlack = min(minSlack, bound-gain)
	}
	return minSlack
}

// TestRankBoundIsSound checks the bound on crowds with rows hit once and
// several times, validated ripple rows, rows whose factors cannot be
// trusted (the guard crowd, under a 1e-12 smoothing) and the serving shape
// at 0, 100 and 400 validations.
func TestRankBoundIsSound(t *testing.T) {
	type crowd struct {
		name string
		res  *Result
		cfg  EMConfig
	}
	var crowds []crowd
	for _, seed := range []int64{1, 3, 7, 13} {
		_, _, res := scoreIndexCrowd(t, 32, seed)
		crowds = append(crowds, crowd{fmt.Sprintf("scoreIndexCrowd seed %d", seed), res, EMConfig{}})
	}
	res, cfg := servingCrowd(t, 2000)
	crowds = append(crowds, crowd{"serving", res, cfg})
	res, cfg = guardCrowd(t, 2)
	crowds = append(crowds, crowd{"guard", res, cfg})
	for _, v := range []int{0, 100, 400} {
		res, cfg := hypoScorerCrowd(t, 2, v)
		crowds = append(crowds, crowd{fmt.Sprintf("hypoScorer %d validations", v), res, cfg})
	}
	for _, c := range crowds {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			t.Logf("smallest slack %.3g", checkRankBound(t, c.name, c.res, c.cfg))
		})
	}
}

// TestRankBoundK3 checks rankBoundK3 against f‴ on a dense grid of logit
// gaps, with f‴ in the closed form of its proof; the grid's supremum is
// near 0.2174. It also checks the closed form against a central difference
// of the table's f″ = 2S, so the proof's formula is the table's function.
func TestRankBoundK3(t *testing.T) {
	f3 := func(z float64) float64 {
		u := z / 2
		th := math.Tanh(u)
		q := (1 - th*th) / 4
		return q * (2*th + u*(1-3*th*th))
	}
	f2 := func(z float64) float64 {
		p := 1 / (1 + math.Exp(-z))
		q := p * (1 - p)
		return -q * (1 - z*math.Tanh(z/2))
	}
	sup := 0.0
	for i := -400000; i <= 400000; i++ {
		z := float64(i) * 1e-4
		sup = max(sup, math.Abs(f3(z)))
		if i%1000 == 0 {
			const h = 1e-4
			if fd := (f2(z+h) - f2(z-h)) / (2 * h); math.Abs(fd-f3(z)) > 1e-6 {
				t.Fatalf("z = %v: f‴ closed form %v, finite difference of f″ %v", z, f3(z), fd)
			}
		}
	}
	if sup > rankBoundK3 || sup < 0.217 || sup > 0.218 {
		t.Fatalf("sup|f‴| on the grid = %v, want about 0.2174 and at most K₃ = %v", sup, rankBoundK3)
	}
}

// TestRankBoundTaylorTable checks the table against the entropy of the
// row's posterior: E + H_r is the entropy at the index's logits, and F and
// S are f′ and f″/2 of that entropy, by central differences in the gap.
func TestRankBoundTaylorTable(t *testing.T) {
	res, cfg := servingCrowd(t, 400)
	ix := NewScoreIndex(res.ProbSet.Answers, res.ProbSet, cfg)
	ix.EnsureRankBounds()
	entropy := func(z float64) float64 {
		p := 1 / (1 + math.Exp(-z))
		h := 0.0
		for _, v := range []float64{p, 1 - p} {
			if v > 0 {
				h -= v * math.Log(v)
			}
		}
		return h
	}
	for o := 0; o < ix.n; o++ {
		z := (ix.logPriors[1] + ix.logRows[2*o+1]) - (ix.logPriors[0] + ix.logRows[2*o])
		tab := ix.taylor[3*o:][:3]
		const h = 1e-4
		want := [3]float64{
			entropy(z) - ix.entropies[o],
			(entropy(z+h) - entropy(z-h)) / (2 * h),
			(entropy(z+h) - 2*entropy(z) + entropy(z-h)) / (2 * h * h),
		}
		for i, tol := range []float64{1e-12, 1e-7, 1e-5} {
			if math.Abs(tab[i]-want[i]) > tol {
				t.Fatalf("object %d (gap %v): coefficient %d = %v, want %v", o, z, i, tab[i], want[i])
			}
		}
	}
}

// FuzzRankBound checks the bound on small random binary crowds: sparse or
// dense answers, some objects validated, the default or a tiny smoothing.
func FuzzRankBound(f *testing.F) {
	f.Add(uint8(12), uint8(4), uint8(3), uint8(10), int64(1), false)
	f.Add(uint8(30), uint8(6), uint8(2), uint8(25), int64(2), true)
	f.Add(uint8(6), uint8(2), uint8(2), uint8(0), int64(3), false)
	f.Fuzz(func(t *testing.T, objects, workers, perObject, validatedPct uint8, seed int64, tiny bool) {
		n, k := 2+int(objects)%40, 1+int(workers)%10
		per := 1 + int(perObject)%k
		rng := rand.New(rand.NewSource(seed))
		answers := model.MustNewAnswerSet(n, k, 2)
		validation := model.NewValidation(n)
		for o := 0; o < n; o++ {
			truth := model.Label(rng.Intn(2))
			for _, w := range rng.Perm(k)[:per] {
				l := truth
				if rng.Float64() < 0.3 {
					l = 1 - l
				}
				if err := answers.SetAnswer(o, w, l); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(100) < int(validatedPct)%50 {
				validation.Set(o, truth)
			}
		}
		if validation.Count() == n {
			return
		}
		cfg := EMConfig{Parallelism: 1}
		if tiny {
			cfg.Smoothing = 1e-12
		}
		res, err := (&IncrementalEM{Config: cfg}).Aggregate(answers, validation, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkRankBound(t, "fuzz crowd", res, cfg)
	})
}
