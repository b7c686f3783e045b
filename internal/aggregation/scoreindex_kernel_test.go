package aggregation

import (
	"fmt"
	"math"
	"testing"

	"crowdval/internal/model"
	"crowdval/internal/simulation"
)

// servingCrowd builds a binary crowd of the serving shape — five answers per
// object from a pool of 60 workers, a quarter of them random spammers — with
// every 37th object validated, aggregated to a fixed point. A candidate's
// touched workers share many objects, so its ripple holds rows hit by
// several workers, and validated ones.
func servingCrowd(t *testing.T, n int) (*Result, EMConfig) {
	t.Helper()
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects: n, NumWorkers: 60, NumLabels: 2, AnswersPerObject: 5,
		NormalAccuracy: 0.7, Mix: simulation.WorkerMix{Normal: 0.75, RandomSpammer: 0.25}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	validation := model.NewValidation(n)
	for o := 0; o < n; o += 37 {
		validation.Set(o, d.Truth[o])
	}
	cfg := EMConfig{Parallelism: 1}
	res, err := (&IncrementalEM{Config: cfg}).Aggregate(d.Answers, validation, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg
}

// TestBinaryKernelMatchesGenericLoop pins the binary ripple kernel to the
// m-label loop, its reference: on every unvalidated object of each binary
// crowd, one scratch scores H(P | o) with the kernel and then with the loop,
// and the two must agree bit for bit and count the same fallback rows. The
// crowds cover rows hit once and several times, validated ripple rows, and
// (the guard crowd) rows whose factors cannot be trusted.
func TestBinaryKernelMatchesGenericLoop(t *testing.T) {
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

	for _, c := range crowds {
		validation := c.res.ProbSet.Validation
		sc := NewScoreIndex(c.res.ProbSet.Answers, c.res.ProbSet, c.cfg).NewHypoScratch()
		score := func(o int, generic bool) (float64, int) {
			sc.generic = generic
			before := sc.fallbacks
			h := sc.ConditionalUncertainty(o)
			return h, sc.fallbacks - before
		}
		fallbacks, multiHit, validatedRows := 0, 0, 0
		for _, o := range validation.UnvalidatedObjects() {
			kernel, kernelFell := score(o, false)
			loop, loopFell := score(o, true)
			if math.Float64bits(kernel) != math.Float64bits(loop) || kernelFell != loopFell {
				t.Fatalf("%s object %d: binary kernel H(P|o) = %v with %d fallback rows, m-label loop %v with %d",
					c.name, o, kernel, kernelFell, loop, loopFell)
			}
			fallbacks += loopFell
			for slot, r := range sc.ripple {
				if sc.hits[slot] > 1 {
					multiHit++
				}
				if validation.Get(r) != model.NoLabel {
					validatedRows++
				}
			}
		}
		t.Logf("%s: %d fallback rows, %d ripple rows hit more than once, %d validated ripple rows",
			c.name, fallbacks, multiHit, validatedRows)
		switch c.name {
		case "serving":
			if multiHit == 0 || validatedRows == 0 {
				t.Fatalf("serving crowd: %d multi-hit and %d validated ripple rows, want both > 0", multiHit, validatedRows)
			}
		case "guard":
			if fallbacks == 0 {
				t.Fatal("guard crowd: no ripple row fell back")
			}
		}
	}
}
