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
// the log-confusion table, the per-object answer log-likelihoods and row
// factors — to one rebuilt from scratch with NewScoreIndex +
// EnsureHypoTables on the same state. It also pins the hypothetical scorer
// against a sequential-sum reference of its E-step and its fused M-step
// against a per-label reference.

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
		"logPriors":  {got.logPriors, want.logPriors},
		"logConfT":   {got.logConfT, want.logConfT},
		"logRows":    {got.logRows, want.logRows},
		"rowExp":     {got.rowExp, want.rowExp},
		"taylor":     {got.taylor, want.taylor},
		"softCounts": {got.softCounts, want.softCounts},
		"maxLogit":   {{got.maxLogit}, {want.maxLogit}},
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
// stays bit-identical to a from-scratch rebuild. The histories also move one
// worker's answers out of the set and back, as a quarantine mask and restore
// do, and run full-path aggregations warm-started from the previous state;
// both are refilled like any other successor. Mid-history the maintained
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
			maintained.EnsureRankBounds()

			patched, rebuilt, quarantined, fullPath := 0, 0, 0, 0
			// A second stream layers the quarantine changes and the
			// full-path settles onto the history, which it leaves as is.
			extra := rand.New(rand.NewSource(seed + 100))
			maskedWorker, stash := -1, []model.ObjectAnswer(nil)
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
				full := false
				switch extra.Intn(5) {
				case 0: // quarantine: mask a worker, or restore the masked one
					quarantined++
					w, moved := maskedWorker, stash
					if w < 0 {
						w = extra.Intn(answers.NumWorkers())
						moved = answers.MaskWorker(w)
						maskedWorker, stash = w, moved
					} else {
						answers.RestoreWorker(w, moved)
						maskedWorker, stash = -1, nil
					}
					for _, oa := range moved {
						dirtyObjects = append(dirtyObjects, oa.Object)
					}
					dirtyWorkers = append(dirtyWorkers, w)
				case 1: // settle on the full path, warm-started from prev
					full = !grew
				}

				prev := res.ProbSet
				if grew {
					// A grown session re-aggregates cold at this layer; the
					// engine's warm growth path is covered by the root suite.
					res, err = iem.Aggregate(answers, validation, nil)
				} else if full {
					fullPath++
					res, err = iem.AggregateContext(context.Background(), answers, validation, prev)
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
					maintained.EnsureRankBounds()
				} else if maintained.Rebase(answers, res.ProbSet) {
					patched++
				} else {
					if !grew {
						t.Fatalf("step %d: Rebase failed without a dimension change", step)
					}
					maintained = NewScoreIndex(answers, res.ProbSet, cfg)
					maintained.EnsureHypoTables()
					maintained.EnsureRankBounds()
					rebuilt++
				}
				if grew && step != 20 && maintained.NumObjects() == 0 {
					t.Fatalf("step %d: empty index after growth rebuild", step)
				}

				fresh := NewScoreIndex(answers, res.ProbSet, cfg)
				fresh.EnsureHypoTables()
				fresh.EnsureRankBounds()
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
			if quarantined == 0 || fullPath == 0 {
				t.Fatalf("history ran %d quarantine changes and %d full-path aggregations, want both", quarantined, fullPath)
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
	hypoRow := make([]float64, m)
	confT := make([]float64, mm)
	expected := 0.0
	for label := 0; label < m; label++ {
		pl := ix.probSet.Assignment.Prob(object, model.Label(label))
		if pl <= 0 {
			continue
		}
		clear(hypoRow)
		hypoRow[label] = 1
		for i, wa := range touched {
			referenceConfusionT(ix, wa.Worker, object, hypoRow, confT)
			for j, q := range confT {
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

// referenceConfusionT re-estimates worker w's confusion matrix with the
// assignment row of hypoObject substituted by hypoRow, into the
// answered-label-major confT — the single-hypothesis frontier M-step, with
// the same per-cell operation sequence as reestimateConfusion and
// model.ConfusionMatrix.Smooth: adds in ascending true-label order per
// answer, eps smoothing, per-true-label row normalization with the uniform
// fallback. The scorer stages all hypotheses of a candidate in one walk
// (HypoScratch.stageWorker); this is the per-hypothesis reference it must
// reproduce bit for bit.
func referenceConfusionT(ix *ScoreIndex, w, hypoObject int, hypoRow, confT []float64) {
	m := ix.m
	u := ix.probSet.Assignment
	clear(confT)
	for _, oa := range ix.answers.WorkerView(w) {
		row := u.RowSlice(oa.Object)
		if oa.Object == hypoObject {
			row = hypoRow
		}
		dst := confT[int(oa.Label)*m : (int(oa.Label)+1)*m]
		for l, p := range row {
			dst[l] += p
		}
	}
	for i := range confT {
		confT[i] += ix.smoothing
	}
	for l := 0; l < m; l++ {
		sum := 0.0
		for a := 0; a < m; a++ {
			sum += confT[a*m+l]
		}
		if sum <= 0 {
			p := 1 / float64(m)
			for a := 0; a < m; a++ {
				confT[a*m+l] = p
			}
			continue
		}
		for a := 0; a < m; a++ {
			confT[a*m+l] /= sum
		}
	}
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

// TestStagedBlocksMatchPerLabelReestimate pins the fused frontier M-step:
// for every candidate, touched worker and hypothesis label h, the staged log
// entries the scorer reads under h (the "own" entry in column h, the "other"
// entry elsewhere) are bit-identical to re-estimating that worker's
// confusion for h alone and logging it, as the per-label scorer did.
func TestStagedBlocksMatchPerLabelReestimate(t *testing.T) {
	var results []*Result
	for _, seed := range []int64{1, 3} {
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
	for _, res := range results {
		ix := NewScoreIndex(res.ProbSet.Answers, res.ProbSet, EMConfig{})
		sc := ix.NewHypoScratch()
		m, mm, run := ix.m, ix.m*ix.m, 4*ix.m
		staged := make([]float64, m*run)
		hypoRow := make([]float64, m)
		confT := make([]float64, mm)
		for o := 0; o < ix.n; o++ {
			for _, wa := range ix.answers.ObjectView(o) {
				sc.stageWorker(staged, wa.Worker, o)
				cur := ix.logConfT[wa.Worker*mm : (wa.Worker+1)*mm]
				for h := 0; h < m; h++ {
					clear(hypoRow)
					hypoRow[h] = 1
					referenceConfusionT(ix, wa.Worker, o, hypoRow, confT)
					for a := 0; a < m; a++ {
						for l := 0; l < m; l++ {
							q := confT[a*m+l]
							if q <= 0 {
								q = 1e-12
							}
							want := math.Log(q) - cur[a*m+l]
							got := staged[a*run+l]
							if l == h {
								got = staged[a*run+m+l]
							}
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("m=%d object %d worker %d hypothesis %d cell (%d,%d): staged %v, per-label %v",
									m, o, wa.Worker, h, l, a, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// guardCrowd builds an m-label crowd whose ripple rows defeat the product
// form: experts answer every anchored object correctly, so their confusions
// are near 0/1 under a tiny smoothing and the anchored rows' logits spread
// far beyond exp's range (R underflows), and every anchored candidate has a
// high degree, so its ripple rows multiply dozens of large factors (Π leaves
// the trusted range). A few noisy workers answer every anchored object at
// random, and each loose object is answered by one of them only, which keeps
// the total uncertainty well away from zero.
func guardCrowd(t *testing.T, m int) (*Result, EMConfig) {
	t.Helper()
	const anchored, loose, experts, noisy = 30, 30, 40, 4
	rng := rand.New(rand.NewSource(int64(97 + m)))
	answers := model.MustNewAnswerSet(anchored+loose, experts+noisy, m)
	for o := 0; o < anchored+loose; o++ {
		if o < anchored {
			for w := 0; w < experts; w++ {
				if err := answers.SetAnswer(o, w, model.Label(o%m)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for w := experts; w < experts+noisy; w++ {
			if o >= anchored && (o+w)%noisy != 0 {
				continue
			}
			if err := answers.SetAnswer(o, w, model.Label(rng.Intn(m))); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := EMConfig{Parallelism: 1, Smoothing: 1e-12}
	res, err := (&IncrementalEM{Config: cfg}).Aggregate(answers, model.NewValidation(anchored+loose), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg
}

// TestHypoFallbackRowsMatchSequentialReference drives the scorer's guard:
// on crowds whose row factors underflow or overflow, the affected rows must
// fall back to taking their exponentials directly, and H(P | o) must still
// agree with the sequential reference within the 1e-12 relative bound of
// TestScorerMatchesSequentialReference. On an ordinary crowd no row falls
// back.
func TestHypoFallbackRowsMatchSequentialReference(t *testing.T) {
	const tolerance = 1e-12
	for _, m := range []int{2, 3, 5} {
		res, cfg := guardCrowd(t, m)
		sc := NewScoreIndex(res.ProbSet.Answers, res.ProbSet, cfg).NewHypoScratch()
		worst := 0.0
		for _, o := range res.ProbSet.Validation.UnvalidatedObjects() {
			got := sc.ConditionalUncertainty(o)
			want := sequentialConditionalUncertainty(sc, o)
			rel := math.Abs(got-want) / want
			if !(rel <= tolerance) {
				t.Fatalf("m=%d object %d: H(P|o) = %v, sequential reference %v (relative deviation %g > %g)",
					m, o, got, want, rel, tolerance)
			}
			worst = math.Max(worst, rel)
		}
		if sc.fallbacks == 0 {
			t.Fatalf("m=%d: no ripple row fell back on a crowd built to defeat the row factors", m)
		}
		t.Logf("m=%d: %d fallback rows, worst relative deviation %.3g, H(P) %v", m, sc.fallbacks, worst, sc.ix.totalH)
	}

	_, _, res := scoreIndexCrowd(t, 32, 1)
	sc := NewScoreIndex(res.ProbSet.Answers, res.ProbSet, EMConfig{}).NewHypoScratch()
	for _, o := range res.ProbSet.Validation.UnvalidatedObjects() {
		sc.ConditionalUncertainty(o)
	}
	if sc.fallbacks != 0 {
		t.Fatalf("ordinary crowd: %d ripple rows fell back, want 0", sc.fallbacks)
	}
}

// TestRowFactorGuards pins the two guards the crowd-level tests cannot reach
// on demand: row factors below the smallest normal float are flushed to zero
// (a subnormal R would carry too few bits into R·Π), and a row whose factors
// are not trusted, or has a zero factor, takes its exponentials directly —
// bit-identical to the exp formula — while a trusted row with normal factors
// agrees with it to rounding.
func TestRowFactorGuards(t *testing.T) {
	ix := &ScoreIndex{n: 1, m: 4, logPriors: make([]float64, 4),
		logRows: []float64{-700, 0, -720, -800}, rowExp: make([]float64, 4)}
	ix.fillRowExp()
	if want := []float64{math.Exp(-700), 1, 0, 0}; !slices.Equal(ix.rowExp, want) {
		t.Fatalf("rowExp = %v, want %v", ix.rowExp, want)
	}

	// One ripple row of a 2-label hypothesis pair: "other" logits, "own"
	// logits, then their factors R·Π, as addRowEntropies reads them.
	x := []float64{-1.25, -0.5, -2.0, -0.75}
	exact := func(h int) float64 {
		a, b := x[0], x[1]
		if h == 0 {
			a = x[2]
		} else {
			b = x[3]
		}
		hi, lo := math.Max(a, b), math.Min(a, b)
		d := lo - hi
		e := math.Exp(d)
		s := 1 + e
		return math.Log(s) - e*d/s
	}
	probs := []float64{0.25, 0.75}
	score := func(factors []float64, trusted bool) (deltaH []float64, fallbacks int) {
		sc := &HypoScratch{deltaH: make([]float64, 2)}
		acc := append(append([]float64(nil), x...), factors...)
		sc.addRowEntropies(acc, probs, trusted, 0)
		return sc.deltaH, sc.fallbacks
	}
	normal := make([]float64, 4)
	for i, v := range x {
		normal[i] = math.Exp(v)
	}
	for _, tc := range []struct {
		name      string
		factors   []float64
		trusted   bool
		fallbacks int
	}{
		{"trusted", normal, true, 0},
		{"untrusted", normal, false, 2},
		{"zero factor", []float64{0, normal[1], normal[2], normal[3]}, true, 1},
	} {
		got, fallbacks := score(tc.factors, tc.trusted)
		if fallbacks != tc.fallbacks {
			t.Fatalf("%s: %d fallback rows, want %d", tc.name, fallbacks, tc.fallbacks)
		}
		for h := range got {
			want := exact(h)
			if tc.fallbacks == 2 && got[h] != want {
				t.Fatalf("%s: hypothesis %d: entropy %v, exp formula %v", tc.name, h, got[h], want)
			}
			if rel := math.Abs(got[h]-want) / want; !(rel <= 1e-14) {
				t.Fatalf("%s: hypothesis %d: entropy %v, exp formula %v (relative %g)", tc.name, h, got[h], want, rel)
			}
		}
	}
}

// TestPooledHypoScratchMatchesFresh pins the free list of an index: a
// scratch released after scoring other candidates in another order comes
// back from AcquireHypoScratch with its fallback count reset, survives an
// in-place Rebase, and scores every candidate bit-identically to a fresh
// scratch of a from-scratch index, whichever scratch the list hands out.
func TestPooledHypoScratchMatchesFresh(t *testing.T) {
	res, cfg := guardCrowd(t, 3)
	ix := NewScoreIndex(res.ProbSet.Answers, res.ProbSet, cfg)
	candidates := res.ProbSet.Validation.UnvalidatedObjects()
	warm := ix.AcquireHypoScratch()
	for i := len(candidates) - 1; i >= 0; i-- {
		warm.ConditionalUncertainty(candidates[i])
	}
	if warm.fallbacks == 0 {
		t.Fatal("guard crowd produced no fallback rows to reset")
	}
	ix.ReleaseHypoScratch(warm)
	pooled := ix.AcquireHypoScratch()
	if pooled != warm {
		t.Fatal("the free list did not hand back the released scratch")
	}
	if pooled.fallbacks != 0 {
		t.Fatalf("a reacquired scratch reports %d fallbacks, want 0", pooled.fallbacks)
	}
	fresh := ix.NewHypoScratch()
	for _, o := range candidates {
		if got, want := pooled.ConditionalUncertainty(o), fresh.ConditionalUncertainty(o); got != want {
			t.Fatalf("H(P|%d): pooled scratch %v, fresh scratch %v", o, got, want)
		}
	}
	if pooled.fallbacks != fresh.fallbacks {
		t.Fatalf("pooled scratch counted %d fallbacks, fresh %d", pooled.fallbacks, fresh.fallbacks)
	}
	ix.ReleaseHypoScratch(pooled)

	// A validation settled on the delta path moves the state; the index is
	// patched in place and keeps its free list.
	validation := res.ProbSet.Validation.Clone()
	validation.Set(candidates[0], 0)
	iem := &IncrementalEM{Config: cfg, Delta: DeltaConfig{Enabled: true}}
	next, err := iem.AggregateDeltaContext(context.Background(), res.ProbSet.Answers, validation, res.ProbSet,
		&Delta{Objects: []int{candidates[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Rebase(res.ProbSet.Answers, next.ProbSet) {
		t.Fatal("Rebase refused a same-shape successor")
	}
	if sc := ix.AcquireHypoScratch(); sc != pooled {
		t.Fatal("the free list did not survive Rebase")
	} else {
		rebuilt := NewScoreIndex(res.ProbSet.Answers, next.ProbSet, cfg).NewHypoScratch()
		for _, o := range next.ProbSet.Validation.UnvalidatedObjects() {
			if got, want := sc.ConditionalUncertainty(o), rebuilt.ConditionalUncertainty(o); got != want {
				t.Fatalf("after Rebase, H(P|%d): pooled scratch %v, rebuilt index %v", o, got, want)
			}
		}
	}

	// Another index's scratch is not taken in.
	other := NewScoreIndex(res.ProbSet.Answers, next.ProbSet, cfg)
	other.ReleaseHypoScratch(fresh)
	if sc := other.AcquireHypoScratch(); sc == fresh {
		t.Fatal("an index pooled a scratch of another index")
	}
}
