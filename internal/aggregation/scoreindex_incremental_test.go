package aggregation

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"crowdval/internal/model"
)

// This file pins the maintained-view contract of the ScoreIndex: after any
// history of mutations and delta aggregations, an index maintained by
// in-place Rebase patches is bit-identical — entropies, totalH, log-priors,
// the log-confusion table and the per-object answer log-likelihoods — to one
// rebuilt from scratch with NewScoreIndex + EnsureHypoTables on the same
// state. It also pins the hypothetical scorer against a sequential-sum
// reference of its E-step.

// assertIndexBitIdentical compares every maintained table of got against a
// from-scratch rebuild want, bit for bit.
func assertIndexBitIdentical(t *testing.T, step int, got, want *ScoreIndex) {
	t.Helper()
	if got.ProbSet() != want.ProbSet() {
		t.Fatalf("step %d: maintained index describes %p, rebuild describes %p", step, got.ProbSet(), want.ProbSet())
	}
	if got.n != want.n || got.m != want.m {
		t.Fatalf("step %d: maintained dims %dx%d, rebuild %dx%d", step, got.n, got.m, want.n, want.m)
	}
	for o := 0; o < want.n; o++ {
		if got.entropies[o] != want.entropies[o] {
			t.Fatalf("step %d: entropy of object %d: maintained %v, rebuild %v",
				step, o, got.entropies[o], want.entropies[o])
		}
	}
	if got.totalH != want.totalH {
		t.Fatalf("step %d: totalH: maintained %v, rebuild %v", step, got.totalH, want.totalH)
	}
	for name, pair := range map[string][2][]float64{
		"logPriors": {got.logPriors, want.logPriors},
		"logConfT":  {got.logConfT, want.logConfT},
		"logRows":   {got.logRows, want.logRows},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("step %d: %s length: maintained %d, rebuild %d", step, name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[1] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("step %d: %s[%d]: maintained %v, rebuild %v", step, name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

func sortedDedup(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// TestScoreIndexRebaseMatchesRebuild drives seeded random histories of
// ingests, validations, retractions and growth through the delta aggregation
// path, maintaining one index by Rebase across every step and asserting it
// stays bit-identical to a from-scratch rebuild. Mid-history the maintained
// index is dropped and rebuilt cold — the snapshot/resume shape — and
// patching must resume seamlessly. Growth must fail the patch (dimension
// change) and fall back to the rebuild.
func TestScoreIndexRebaseMatchesRebuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5} {
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			n, k, m := 24+rng.Intn(8), 6, 2+rng.Intn(2)
			answers := model.MustNewAnswerSet(n, k, m)
			for o := 0; o < n; o++ {
				truth := model.Label(o % m)
				for w := 0; w < k-1; w++ {
					l := truth
					if rng.Float64() > 0.75 {
						l = model.Label(rng.Intn(m))
					}
					if err := answers.SetAnswer(o, w, l); err != nil {
						t.Fatal(err)
					}
				}
			}
			validation := model.NewValidation(n)
			cfg := EMConfig{Parallelism: 1}
			iem := &IncrementalEM{Config: cfg, Delta: DeltaConfig{Enabled: true}}
			res, err := iem.Aggregate(answers, validation, nil)
			if err != nil {
				t.Fatal(err)
			}
			maintained := NewScoreIndex(answers, res.ProbSet, cfg)
			maintained.EnsureHypoTables()

			patched, rebuilt := 0, 0
			for step := 0; step < 40; step++ {
				var dirtyObjects, dirtyWorkers []int
				grew := false
				switch op := rng.Intn(10); {
				case op < 4: // ingest one answer for an existing object
					o, w := rng.Intn(answers.NumObjects()), rng.Intn(answers.NumWorkers())
					if err := answers.SetAnswer(o, w, model.Label(rng.Intn(m))); err != nil {
						t.Fatal(err)
					}
					dirtyObjects = append(dirtyObjects, o)
					dirtyWorkers = append(dirtyWorkers, w)
				case op < 7: // expert validates an object
					o := rng.Intn(answers.NumObjects())
					validation.Set(o, model.Label(rng.Intn(m)))
					dirtyObjects = append(dirtyObjects, o)
				case op < 9: // a validation is retracted
					o := rng.Intn(answers.NumObjects())
					validation.Set(o, model.NoLabel)
					dirtyObjects = append(dirtyObjects, o)
				default: // growth: a new object with a couple of answers
					grew = true
					o := answers.NumObjects()
					if err := answers.Grow(o+1, answers.NumWorkers()); err != nil {
						t.Fatal(err)
					}
					if err := validation.Grow(o + 1); err != nil {
						t.Fatal(err)
					}
					for w := 0; w < 2; w++ {
						if err := answers.SetAnswer(o, w, model.Label(rng.Intn(m))); err != nil {
							t.Fatal(err)
						}
						dirtyWorkers = append(dirtyWorkers, w)
					}
					dirtyObjects = append(dirtyObjects, o)
				}

				prev := res.ProbSet
				if grew {
					// A grown session re-aggregates cold at this layer; the
					// engine's warm growth path is covered by the root suite.
					res, err = iem.Aggregate(answers, validation, nil)
				} else {
					delta := &Delta{Objects: sortedDedup(dirtyObjects), Workers: sortedDedup(dirtyWorkers)}
					res, err = iem.AggregateDeltaContext(context.Background(), answers, validation, prev, delta)
				}
				if err != nil {
					t.Fatal(err)
				}

				if step == 20 {
					// Snapshot/resume shape: the maintained index does not
					// survive a process boundary; a resumed process builds
					// cold and patches from there.
					maintained = NewScoreIndex(answers, res.ProbSet, cfg)
					maintained.EnsureHypoTables()
				} else if maintained.Rebase(answers, res.ProbSet) {
					patched++
				} else {
					if !grew {
						t.Fatalf("step %d: Rebase failed without a dimension change", step)
					}
					maintained = NewScoreIndex(answers, res.ProbSet, cfg)
					maintained.EnsureHypoTables()
					rebuilt++
				}
				if grew && step != 20 && maintained.NumObjects() == 0 {
					t.Fatalf("step %d: empty index after growth rebuild", step)
				}

				fresh := NewScoreIndex(answers, res.ProbSet, cfg)
				fresh.EnsureHypoTables()
				assertIndexBitIdentical(t, step, maintained, fresh)

				// The maintained index must also serve hypothetical scoring
				// identically to the rebuild, concurrently (race coverage:
				// Rebase above ran with readers excluded, scoring below
				// shares the patched index across goroutines).
				candidates := validation.UnvalidatedObjects()
				if len(candidates) > 3 {
					candidates = candidates[:3]
				}
				var wg sync.WaitGroup
				for _, o := range candidates {
					wg.Add(1)
					go func(o int) {
						defer wg.Done()
						got := maintained.NewHypoScratch().ConditionalUncertainty(o)
						want := fresh.NewHypoScratch().ConditionalUncertainty(o)
						if got != want {
							t.Errorf("step %d: H(P|%d): maintained %v, rebuild %v", step, o, got, want)
						}
					}(o)
				}
				wg.Wait()
			}
			if patched == 0 {
				t.Fatal("history never exercised the patch path")
			}
			if rebuilt == 0 {
				t.Fatal("history never exercised the growth-rebuild fallback")
			}
		})
	}
}

// TestRebaseRejectsShapeChanges: the patch must refuse states it cannot
// describe — a different answer set, changed dimensions, a changed worker
// count, or nil — leaving the index untouched and valid for its own state.
func TestRebaseRejectsShapeChanges(t *testing.T) {
	answers, _, res := scoreIndexCrowd(t, 16, 1)
	ix := NewScoreIndex(answers, res.ProbSet, EMConfig{})
	if ix.Rebase(answers, nil) {
		t.Fatal("Rebase accepted a nil state")
	}
	other := answers.Clone()
	if ix.Rebase(other, res.ProbSet) {
		t.Fatal("Rebase accepted a different answer set")
	}
	grown := &model.ProbabilisticAnswerSet{
		Answers:    answers,
		Validation: res.ProbSet.Validation,
		Assignment: model.NewAssignmentMatrix(answers.NumObjects()+1, answers.NumLabels()),
		Confusions: res.ProbSet.Confusions,
	}
	if ix.Rebase(answers, grown) {
		t.Fatal("Rebase accepted changed dimensions")
	}
	fewer := &model.ProbabilisticAnswerSet{
		Answers:    answers,
		Validation: res.ProbSet.Validation,
		Assignment: res.ProbSet.Assignment,
		Confusions: res.ProbSet.Confusions[:len(res.ProbSet.Confusions)-1],
	}
	if ix.Rebase(answers, fewer) {
		t.Fatal("Rebase accepted a changed worker count")
	}
	if ix.ProbSet() != res.ProbSet {
		t.Fatal("failed Rebase moved the index off its state")
	}
}

// sequentialConditionalUncertainty is a test-only copy of the hypothetical
// scorer's E-step before it was scored from the touched workers' side: after
// the same frontier M-step, every ripple row's logits are re-summed over all
// of its answers in answer order (re-estimated blocks substituted for the
// touched workers), exponentiated, normalized, and its entropy is summed
// term by term.
func sequentialConditionalUncertainty(sc *HypoScratch, object int) float64 {
	ix := sc.ix
	m, mm := ix.m, ix.m*ix.m
	touched := ix.answers.ObjectView(object)
	staged := make([]float64, len(touched)*mm)
	row := make([]float64, m)
	expected := 0.0
	for label := 0; label < m; label++ {
		pl := ix.probSet.Assignment.Prob(object, model.Label(label))
		if pl <= 0 {
			continue
		}
		clear(sc.hypoRow)
		sc.hypoRow[label] = 1
		for i, wa := range touched {
			sc.reestimateConfusionT(wa.Worker, object)
			for j, q := range sc.confT {
				if q <= 0 {
					q = 1e-12
				}
				staged[i*mm+j] = math.Log(q)
			}
		}
		h := ix.totalH - ix.entropies[object]
		seen := map[int]bool{object: true}
		for _, wa := range touched {
			for _, oa := range ix.answers.WorkerView(wa.Worker) {
				o := oa.Object
				if seen[o] || ix.probSet.Validation.Get(o) != model.NoLabel {
					seen[o] = true
					continue
				}
				seen[o] = true
				copy(row, ix.logPriors)
				for _, wb := range ix.answers.ObjectView(o) {
					lf := ix.logConfT[wb.Worker*mm+int(wb.Label)*m:][:m]
					for i, wt := range touched {
						if wt.Worker == wb.Worker {
							lf = staged[i*mm+int(wb.Label)*m:][:m]
						}
					}
					for l, v := range lf {
						row[l] += v
					}
				}
				maxLog := slices.Max(row)
				sum := 0.0
				for l := range row {
					row[l] = math.Exp(row[l] - maxLog)
					sum += row[l]
				}
				rowH := 0.0
				for l := range row {
					if p := row[l] / sum; p > 0 {
						rowH -= p * math.Log(p)
					}
				}
				h += math.Max(rowH, 0) - ix.entropies[o]
			}
		}
		expected += pl * math.Max(h, 0)
	}
	return expected
}

// TestScorerMatchesSequentialReference pins the hypothetical scorer to the
// sequential-sum E-step it replaced: scoring a ripple row as logPriors +
// logRows + Δ with the entropy taken in log space only reassociates the same
// sums, so H(P | o) must agree to 1e-12 relative on every unvalidated object
// of binary and multi-label crowds.
func TestScorerMatchesSequentialReference(t *testing.T) {
	const tolerance = 1e-12
	var results []*Result
	for _, seed := range []int64{1, 3, 7, 13} {
		_, _, res := scoreIndexCrowd(t, 32, seed)
		results = append(results, res)
	}
	for _, m := range []int{3, 5} {
		answers, validation := randomSparseAnswers(t, 60, 8, m, 4, 0.1, int64(m))
		res, err := (&IncrementalEM{Config: EMConfig{Parallelism: 1}}).Aggregate(answers, validation, nil)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i, res := range results {
		sc := NewScoreIndex(res.ProbSet.Answers, res.ProbSet, EMConfig{}).NewHypoScratch()
		worst := 0.0
		for _, o := range res.ProbSet.Validation.UnvalidatedObjects() {
			got := sc.ConditionalUncertainty(o)
			want := sequentialConditionalUncertainty(sc, o)
			rel := math.Abs(got-want) / want
			if !(rel <= tolerance) {
				t.Fatalf("crowd %d (m=%d) object %d: H(P|o) = %v, sequential reference %v (relative deviation %g > %g)",
					i, sc.ix.m, o, got, want, rel, tolerance)
			}
			worst = math.Max(worst, rel)
		}
		t.Logf("crowd %d (m=%d): worst relative deviation %.3g", i, sc.ix.m, worst)
	}
}

// TestBlockedScratchZeroAllocsPerCandidate asserts the scorer's per-ripple-row
// Δ blocks ([m]-strided slots in the accumulator) are reused, not grown, once
// the scratch is warm: on 3- and 5-label crowds scoring a candidate allocates
// nothing. TestHypoScratchZeroAllocsPerCandidate covers the binary crowd.
func TestBlockedScratchZeroAllocsPerCandidate(t *testing.T) {
	for _, m := range []int{3, 5} {
		answers, validation := randomSparseAnswers(t, 60, 8, m, 4, 0.1, int64(m))
		res, err := (&IncrementalEM{Config: EMConfig{Parallelism: 1}}).Aggregate(answers, validation, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScoreIndex(answers, res.ProbSet, EMConfig{}).NewHypoScratch()
		candidates := validation.UnvalidatedObjects()
		for _, o := range candidates {
			sc.ConditionalUncertainty(o)
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			sc.ConditionalUncertainty(candidates[i%len(candidates)])
			i++
		})
		if allocs != 0 {
			t.Fatalf("m=%d: scorer allocates %.1f objects per candidate, want 0", m, allocs)
		}
	}
}
