package aggregation

import (
	"math"

	"crowdval/internal/model"
)

// This file implements the delta-accelerated guidance-scoring substrate. The
// uncertainty-driven strategy of §5.2 must evaluate, per candidate object o
// and label l, the uncertainty of the probabilistic answer set re-aggregated
// under the hypothetical validation e(o) = l. Running a full warm EM per
// (candidate, label) — the exact reference scorer — costs O(#answers · m ·
// iterations) per hypothesis, which on the 50 000 × 500 serving workload puts
// one NextObject call at hundreds of warm-EM runs while a delta ingest costs
// milliseconds. The hypothetical validation, however, dirties exactly the
// same frontier the delta-ingest path exploits: object o plus the workers who
// answered o. The ScoreIndex therefore precomputes the per-aggregation state
// once (log-priors, the k·m² log-confusion table, each object's summed
// answer log-likelihoods, per-object entropies), and a HypoScratch replays
// one frontier-restricted E/M/E pass per hypothesis — pin row o, re-estimate
// the confusion rows of o's workers, recompute the posterior rows of the
// objects those workers answered — accumulating the entropy change against
// the maintained entropy index.
//
// The ripple E-step is scored from the touched workers' side: each touched
// worker's view is walked once, adding its staged-minus-current log-block
// entry into a per-ripple-row accumulator Δ, and each ripple row's logits are
// then logPriors + logRows[r] + Δ. A ripple row therefore costs O(its touched
// answers) — usually one — instead of O(its degree), and its entropy is taken
// in log space with m−1 exp and one log. One hypothesis costs O(Σ touched
// workers' degrees · m) plus the frontier M-step, and no object's answer list
// is read at all.
//
// The result is a first-order estimate of the exact conditional uncertainty:
// it captures the hypothesis' local ripple (the frontier's rows and its
// workers' confusion rows) exactly where hypothetical validations act
// locally, but not the global re-convergence cascades the exact warm EM can
// run into — on weakly anchored states a single pinned row can shift every
// worker's confusion over tens of full iterations, a genuinely global effect
// no frontier-restricted pass can see (iterating the local pass converges
// immediately and does not help; the parity suite measured it). The exact
// full-EM scorer therefore remains the reference, and the parity suites gate
// the approximation at documented tolerances: per-hypothesis H(P | o)
// accuracy on locally-acting states (aggregation suite, 5e-2), and
// statistical selection regret on seeded serving-shaped histories (root
// session suite), mirroring the delta/full aggregation contract of the
// ingest path.

// ScoreIndex is the per-aggregation state shared by all guidance scoring of
// one probabilistic answer set: per-object entropies (computed once instead
// of once per sort comparison), the total uncertainty, and — for the
// delta-accelerated hypothetical scorer — the log-prior, log-confusion and
// per-object answer log-likelihood tables of the current fixed point. An
// index describes exactly one aggregation result; when the state moves to a
// successor result the index is either patched onto it in place (Rebase —
// the maintained-view path, cost proportional to what actually changed) or
// rebuilt from scratch. The index is immutable between those transitions and
// safe for concurrent readers; Rebase mutates it and must be serialized
// against readers by the caller (the engine runs it under its selection
// lock, with mutations excluded). Per-goroutine mutable state lives in
// HypoScratch values.
type ScoreIndex struct {
	answers   *model.AnswerSet
	probSet   *model.ProbabilisticAnswerSet
	n, m      int
	smoothing float64

	entropies []float64
	totalH    float64

	// Hypothetical-scoring tables, built by EnsureHypoTables. logConfT holds
	// per-worker m² log-confusion blocks in answered-label-major layout
	// (block[a·m + l] = log F(l, a)), so the m-vector of one observed answer
	// is one contiguous run. logRows holds, per object, the sum of its
	// answers' log-confusion vectors in answer order (n·m, priors excluded):
	// the E-step logits of every object minus its log-priors.
	logPriors []float64
	logConfT  []float64
	logRows   []float64
}

// NewScoreIndex builds the scoring index for one aggregation result. The
// answer set must be the one the probabilistic state was aggregated over
// (for engine use: the quarantine-masked working set). cfg supplies the
// M-step smoothing the hypothetical confusion re-estimates mirror.
//
// Only the entropy index is computed eagerly — O(n·m), the part every
// strategy needs. Callers that score hypotheses (the delta-accelerated
// uncertainty scorer) must call EnsureHypoTables once before fanning out.
func NewScoreIndex(answers *model.AnswerSet, p *model.ProbabilisticAnswerSet, cfg EMConfig) *ScoreIndex {
	n, m := p.Assignment.NumObjects(), p.Assignment.NumLabels()
	ix := &ScoreIndex{
		answers:   answers,
		probSet:   p,
		n:         n,
		m:         m,
		smoothing: cfg.smoothing(),
		entropies: make([]float64, n),
	}
	for o := 0; o < n; o++ {
		h := ObjectEntropy(p.Assignment, o)
		ix.entropies[o] = h
		ix.totalH += h
	}
	return ix
}

// TotalUncertainty returns H(P) of the indexed probabilistic answer set. The
// accumulation order matches Uncertainty, so the value is bit-identical.
func (ix *ScoreIndex) TotalUncertainty() float64 { return ix.totalH }

// ObjectEntropy returns the precomputed entropy of one object.
func (ix *ScoreIndex) ObjectEntropy(o int) float64 { return ix.entropies[o] }

// NumObjects returns the number of objects the index covers.
func (ix *ScoreIndex) NumObjects() int { return ix.n }

// EnsureHypoTables builds the log-prior, log-confusion and answer
// log-likelihood tables the hypothetical scorer reads — O(k·m² + #answers·m).
// It is idempotent but not safe for concurrent first calls: build the tables
// once (e.g. while holding the selection lock) before concurrent scorers
// share the index. Scorers never build tables themselves.
func (ix *ScoreIndex) EnsureHypoTables() {
	if ix.logConfT != nil {
		return
	}
	m := ix.m
	logPriors := make([]float64, m)
	fillLogPriors(logPriors, ix.probSet.Assignment)
	logConfT := make([]float64, len(ix.probSet.Confusions)*m*m)
	for w := range ix.probSet.Confusions {
		fillLogConfBlockT(logConfT[w*m*m:(w+1)*m*m], ix.probSet.Confusions[w], m)
	}
	ix.logPriors = logPriors
	ix.logConfT = logConfT
	ix.logRows = make([]float64, ix.n*m)
	ix.fillLogRows()
}

// fillLogRows recomputes every object's summed answer log-likelihoods from
// logConfT, adding the answers in ObjectView order onto zero — the same
// operations in the same order whether called from a build or a Rebase, so
// the two produce identical bits.
func (ix *ScoreIndex) fillLogRows() {
	m := ix.m
	mm := m * m
	for o := 0; o < ix.n; o++ {
		row := ix.logRows[o*m : (o+1)*m]
		clear(row)
		for _, wa := range ix.answers.ObjectView(o) {
			lf := ix.logConfT[wa.Worker*mm+int(wa.Label)*m:][:m]
			for l, v := range lf {
				row[l] += v
			}
		}
	}
}

// fillLogPriors writes the log class priors of the assignment into dst,
// flooring hard zeros at 1e-12 like the hypo tables do.
func fillLogPriors(dst []float64, u *model.AssignmentMatrix) {
	for l, p := range u.Priors() {
		if p <= 0 {
			p = 1e-12
		}
		dst[l] = math.Log(p)
	}
}

// fillLogConfBlockT writes one worker's m² log-confusion block in
// answered-label-major layout (dst[a·m + l] = log F(l, a), floored at 1e-12
// like fillLogConfBlock).
func fillLogConfBlockT(dst []float64, f *model.ConfusionMatrix, m int) {
	for l := 0; l < m; l++ {
		for a := 0; a < m; a++ {
			p := f.At(model.Label(l), model.Label(a))
			if p <= 0 {
				p = 1e-12
			}
			dst[a*m+l] = math.Log(p)
		}
	}
}

// HypoScratch is the per-goroutine scratch state of the delta-accelerated
// hypothetical scorer: the pinned row, the frontier M-step accumulator, one
// staged-minus-current log-block per touched worker, and the ripple rows with
// their logit accumulators. A scratch is owned by exactly one goroutine;
// scoring a candidate allocates nothing once its buffers have grown to the
// largest frontier and ripple seen (asserted by a testing.AllocsPerRun
// test).
type HypoScratch struct {
	ix *ScoreIndex
	// hypoRow is the pinned point-mass row of the candidate object.
	hypoRow []float64
	// confT is the frontier M-step's soft-count accumulator, in the
	// answered-label-major layout of ScoreIndex.logConfT.
	confT []float64
	// deltas holds, per touched worker, its re-estimated log-confusion block
	// minus the index's (m² each, answered-label-major).
	deltas []float64
	// ripple lists the current hypothesis' ripple rows in first-seen order;
	// acc holds their logit changes Δ, m per row. seen maps an object to its
	// ripple slot: seen[o] − base is o's slot when it lies in
	// [0, len(ripple)), and negative otherwise. Each hypothesis moves base
	// past every slot it handed out, so no clearing is needed between
	// hypotheses.
	ripple []int
	acc    []float64
	seen   []int32
	base   int32
	// row holds one ripple row's logits.
	row []float64
}

// NewHypoScratch prepares a per-goroutine scratch for hypothetical scoring.
// EnsureHypoTables is run on the index if it has not been already; callers
// that share the index across goroutines must have run it before fanning
// out.
func (ix *ScoreIndex) NewHypoScratch() *HypoScratch {
	ix.EnsureHypoTables()
	return &HypoScratch{
		ix:      ix,
		hypoRow: make([]float64, ix.m),
		confT:   make([]float64, ix.m*ix.m),
		seen:    make([]int32, ix.n),
		base:    1,
		row:     make([]float64, ix.m),
	}
}

// ConditionalUncertainty estimates H(P | o) (Eq. 8) with one
// frontier-restricted hypothetical EM pass per label: the expectation, over
// the candidate's current label distribution, of the total uncertainty after
// the hypothetical validation e(o) = l. Labels with zero probability are
// skipped, mirroring the exact scorer.
func (sc *HypoScratch) ConditionalUncertainty(object int) float64 {
	ix := sc.ix
	expected := 0.0
	for l := 0; l < ix.m; l++ {
		p := ix.probSet.Assignment.Prob(object, model.Label(l))
		if p <= 0 {
			continue
		}
		expected += p * sc.hypotheticalUncertainty(object, model.Label(l))
	}
	return expected
}

// hypotheticalUncertainty estimates the total uncertainty of the answer set
// under the hypothetical validation e(object) = label: pin the object's row
// to the point mass (its entropy drops to zero), re-estimate the confusion
// rows of the workers who answered it against the pinned row (frontier
// M-step), and recompute the posterior rows of every other object those
// workers answered (frontier E-step), folding each entropy change into the
// maintained index total. Priors stay at the current fixed point — pinning
// one row moves them by O(1/n), part of the documented approximation.
func (sc *HypoScratch) hypotheticalUncertainty(object int, label model.Label) float64 {
	ix := sc.ix
	m := ix.m
	mm := m * m
	clear(sc.hypoRow)
	sc.hypoRow[label] = 1

	// Frontier M-step: one re-estimated log-confusion block per answering
	// worker, staged in scratch as its difference to the index's block so
	// the shared index stays untouched.
	touched := ix.answers.ObjectView(object)
	if need := len(touched) * mm; cap(sc.deltas) < need {
		sc.deltas = make([]float64, need)
	} else {
		sc.deltas = sc.deltas[:need]
	}
	reach := 0
	for i, wa := range touched {
		reach += len(ix.answers.WorkerView(wa.Worker))
		sc.reestimateConfusionT(wa.Worker, object)
		d := sc.deltas[i*mm : (i+1)*mm]
		cur := ix.logConfT[wa.Worker*mm : (wa.Worker+1)*mm]
		for j, p := range sc.confT {
			if p <= 0 {
				p = 1e-12
			}
			d[j] = math.Log(p) - cur[j]
		}
	}

	// Frontier E-step, from the touched workers' side: every answer of a
	// touched worker adds its staged-minus-current log vector to the Δ of
	// the answered object. Objects shared by several touched workers get one
	// slot, in first-seen order; the touched workers' answer count bounds
	// the number of slots.
	if cap(sc.acc) < reach*m {
		sc.acc = make([]float64, reach*m)
		sc.ripple = make([]int, 0, reach)
	}
	if int(sc.base) > math.MaxInt32-ix.n {
		clear(sc.seen)
		sc.base = 1
	}
	base := sc.base
	sc.ripple = sc.ripple[:0]
	for i, wa := range touched {
		d := sc.deltas[i*mm : (i+1)*mm]
		for _, oa := range ix.answers.WorkerView(wa.Worker) {
			r := oa.Object
			if r == object {
				continue
			}
			slot := int(sc.seen[r] - base)
			if slot < 0 {
				slot = len(sc.ripple)
				sc.seen[r] = base + int32(slot)
				sc.ripple = append(sc.ripple, r)
				clear(sc.acc[slot*m : (slot+1)*m])
			}
			dst := sc.acc[slot*m : (slot+1)*m]
			for l, v := range d[int(oa.Label)*m:][:m] {
				dst[l] += v
			}
		}
	}
	sc.base += int32(len(sc.ripple))

	// The pinned row's entropy drops to zero; validated ripple rows stay
	// pinned at zero entropy.
	deltaH := -ix.entropies[object]
	validation := ix.probSet.Validation
	for slot, r := range sc.ripple {
		if validation.Get(r) != model.NoLabel {
			continue
		}
		deltaH += sc.rippleEntropy(r, sc.acc[slot*m:(slot+1)*m]) - ix.entropies[r]
	}

	h := ix.totalH + deltaH
	if h < 0 {
		h = 0
	}
	return h
}

// rippleEntropy returns the entropy of ripple row r's hypothetical posterior,
// whose logits are logPriors + logRows[r] + delta. With d_l the logits minus
// their maximum, e_l = exp(d_l) and S = Σ e_l, the posterior is e_l/S and
// its entropy is log S − Σ (e_l·d_l)/S: m−1 exp (the maximum's e is exactly
// 1) and one log, instead of normalizing the row and taking m logs.
func (sc *HypoScratch) rippleEntropy(r int, delta []float64) float64 {
	ix := sc.ix
	m := ix.m
	x := sc.row
	lr := ix.logRows[r*m : (r+1)*m]
	arg := 0
	for l := range x {
		x[l] = ix.logPriors[l] + lr[l] + delta[l]
		if x[l] > x[arg] {
			arg = l
		}
	}
	maxLog := x[arg]
	s, t := 1.0, 0.0
	for l, v := range x {
		if l == arg {
			continue
		}
		d := v - maxLog
		e := math.Exp(d)
		s += e
		t += e * d
	}
	return math.Log(s) - t/s
}

// reestimateConfusionT re-estimates worker w's confusion matrix with the
// assignment row of hypoObject substituted by sc.hypoRow — the frontier
// M-step of a hypothetical validation, which must not mutate the shared
// assignment matrix. It accumulates into the answered-label-major scratch
// sc.confT with the same per-cell operation sequence as reestimateConfusion
// and model.ConfusionMatrix.Smooth: adds in ascending true-label order per
// answer, eps smoothing, per-true-label row normalization with the uniform
// fallback.
func (sc *HypoScratch) reestimateConfusionT(w, hypoObject int) {
	ix := sc.ix
	m := ix.m
	u := ix.probSet.Assignment
	confT := sc.confT
	clear(confT)
	for _, oa := range ix.answers.WorkerView(w) {
		row := u.RowSlice(oa.Object)
		if oa.Object == hypoObject {
			row = sc.hypoRow
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
