package aggregation

import (
	"math"
	"sync"

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
// The ripple E-step is scored from the touched workers' side, for all m
// labels of a candidate in one pass. One walk over each touched worker's
// answers re-estimates its confusion under every hypothesis at once (pinning
// the candidate to label h changes a single soft count of the worker), and
// the worker's staged-minus-current log entries are exponentiated once: 2m²
// logs and 2m² exps per touched worker per candidate. Each touched worker's
// view is then walked once, adding those entries into per-ripple-row
// accumulators Δ and multiplying their exponentials into per-row products Π.
// A ripple row's logits are logPriors + logRows[r] + Δ, and its entropy is
// taken in log space from the index's per-row factors R = exp(b − max b)
// (b = logPriors + logRows[r]) times Π instead of from exp: one log per
// ripple row and hypothesis, and no exp. A ripple row costs O(its touched
// answers) — usually one — instead of O(its degree), and no object's answer
// list is read. Rows whose factors leave the normal float range fall back to
// taking their m−1 exponentials directly. A row hit by one touched answer —
// most rows — reads that answer's staged run in place; only a row hit twice
// gets an accumulator of its own. Binary candidates score their rows in a
// kernel that holds both hypotheses in locals and repeats the m-label loop's
// floating-point operations one for one, so the two agree bit for bit.
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
// successor result of the same shape the index is refilled in place (Rebase
// — the maintained-view path, which keeps the index's buffers); otherwise a
// new index is built. The index is immutable between those transitions and
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
	// rowExp holds, per object, R_l = exp(b_l − max b) with b = logPriors +
	// logRows (n·m, flushed to zero below the smallest normal float): the
	// factors from which hypothetical row posteriors are formed without exp.
	logPriors []float64
	logConfT  []float64
	logRows   []float64
	rowExp    []float64
	// The rank-bound tables of a binary index (RankBound), built by
	// EnsureRankBounds and nil until then. taylor holds,
	// per object, the coefficients E, F, S of its entropy change around its
	// current logit gap, side by side. softCounts holds each worker's M-step
	// soft counts over all of its answers in the layout of logConfT
	// (block[a·m + l] = Σ of row l of the objects it answered a). maxLogit
	// is the largest |b_l| of any object.
	taylor     []float64
	softCounts []float64
	maxLogit   float64

	// free holds released hypothetical-scoring scratches for reuse by later
	// rankings of this index (AcquireHypoScratch/ReleaseHypoScratch).
	freeMu sync.Mutex
	free   []*HypoScratch
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
	ix.fillEntropies()
	return ix
}

// fillEntropies recomputes every object's entropy and re-sums totalH in
// index order onto zero, the accumulation order of Uncertainty.
func (ix *ScoreIndex) fillEntropies() {
	total := 0.0
	for o := range ix.entropies {
		h := ObjectEntropy(ix.probSet.Assignment, o)
		ix.entropies[o] = h
		total += h
	}
	ix.totalH = total
}

// TotalUncertainty returns H(P) of the indexed probabilistic answer set. The
// accumulation order matches Uncertainty, so the value is bit-identical.
func (ix *ScoreIndex) TotalUncertainty() float64 { return ix.totalH }

// ObjectEntropy returns the precomputed entropy of one object.
func (ix *ScoreIndex) ObjectEntropy(o int) float64 { return ix.entropies[o] }

// NumObjects returns the number of objects the index covers.
func (ix *ScoreIndex) NumObjects() int { return ix.n }

// EnsureHypoTables builds the log-prior, log-confusion, answer
// log-likelihood and row-factor tables the hypothetical scorer reads —
// O(k·m² + #answers·m + n·m).
// It is idempotent but not safe for concurrent first calls: build the tables
// once (e.g. while holding the selection lock) before concurrent scorers
// share the index. Scorers never build tables themselves.
func (ix *ScoreIndex) EnsureHypoTables() {
	if ix.logConfT != nil {
		return
	}
	m := ix.m
	ix.logPriors = make([]float64, m)
	ix.logConfT = make([]float64, len(ix.probSet.Confusions)*m*m)
	ix.logRows = make([]float64, ix.n*m)
	ix.rowExp = make([]float64, ix.n*m)
	ix.fillHypoTables()
}

// fillHypoTables recomputes every hypothetical-scoring table the index has,
// rank-bound tables included, each from the tables it depends on. The
// entropies must be current.
func (ix *ScoreIndex) fillHypoTables() {
	fillLogPriors(ix.logPriors, ix.probSet.Assignment)
	ix.fillLogConfT()
	ix.fillLogRows()
	if ix.softCounts != nil {
		ix.fillSoftCounts()
	}
	ix.fillRowExp()
}

// EnsureRankBounds builds a binary index's rank-bound tables (RankBound),
// after the hypothetical-scoring tables if those are missing, and reports
// whether the index has them: an index with m ≥ 3 has none. Only rankings
// that bound their candidates need them, so strategies that score every
// candidate never pay for them; once built, Rebase keeps them current. Like
// EnsureHypoTables it is idempotent but not safe for concurrent first calls.
func (ix *ScoreIndex) EnsureRankBounds() bool {
	if ix.m != 2 {
		return false
	}
	if ix.taylor == nil {
		ix.EnsureHypoTables()
		ix.taylor = make([]float64, 3*ix.n)
		ix.softCounts = make([]float64, len(ix.logConfT))
		ix.fillSoftCounts()
		// Refilling the row factors repeats their bits and fills the Taylor
		// table alongside.
		ix.fillRowExp()
	}
	return true
}

// fillRowExp recomputes every object's row factors from logPriors and
// logRows. The logits b_l = logPriors[l] + logRows[r·m+l] are
// formed exactly as the scorer forms them. An index with rank-bound tables
// fills its Taylor table and maxLogit in the same pass, so the entropies
// must be current.
func (ix *ScoreIndex) fillRowExp() {
	m := ix.m
	maxLogit := 0.0
	for o := 0; o < ix.n; o++ {
		lr := ix.logRows[o*m : (o+1)*m]
		rx := ix.rowExp[o*m : (o+1)*m]
		arg := 0
		for l, v := range lr {
			rx[l] = ix.logPriors[l] + v
			if rx[l] > rx[arg] {
				arg = l
			}
		}
		z := 0.0
		if ix.taylor != nil {
			z = rx[1] - rx[0]
			maxLogit = max(maxLogit, math.Abs(rx[0]), math.Abs(rx[1]))
		}
		maxB := rx[arg]
		for l, b := range rx {
			r := 1.0
			if l != arg {
				r = math.Exp(b - maxB)
			}
			if r < minNormal {
				r = 0
			}
			rx[l] = r
		}
		if ix.taylor != nil {
			ix.fillTaylor(o, z, min(rx[0], rx[1]))
		}
	}
	ix.maxLogit = maxLogit
}

// fillTaylor writes object o's rank-bound coefficients from its logit gap
// z = b₁ − b₀ and its non-maximal row factor y = e^−|z| (0 once that
// underflows). With f(z) the binary entropy as a function of the gap, and
// p(1−p) = y/(1+y)², z·tanh(z/2) = |z|(1−y)/(1+y):
//
//	E = f(z) − entropies[o],  f(z) = log1p(y) + |z|·y/(1+y)
//	F = f′(z)  = −z·p(1−p)
//	S = f″(z)/2 = −p(1−p)(1 − z·tanh(z/2))/2
//
// one log1p and no exp per object.
func (ix *ScoreIndex) fillTaylor(o int, z, y float64) {
	az := math.Abs(z)
	inv := 1 / (1 + y)
	pMin := y * inv
	q := pMin * inv
	t := ix.taylor[3*o:][:3]
	t[0] = math.Log1p(y) + az*pMin - ix.entropies[o]
	t[1] = -z * q
	t[2] = -0.5 * q * (1 - az*(1-y)*inv)
}

// fillSoftCounts recomputes every worker's soft counts from the assignment,
// adding its answers' rows in WorkerView order onto zero.
func (ix *ScoreIndex) fillSoftCounts() {
	m := ix.m
	u := ix.probSet.Assignment
	clear(ix.softCounts)
	for w := 0; w < len(ix.softCounts)/(m*m); w++ {
		block := ix.softCounts[w*m*m : (w+1)*m*m]
		for _, oa := range ix.answers.WorkerView(w) {
			cells := block[int(oa.Label)*m:][:m]
			for l, p := range u.RowSlice(oa.Object) {
				cells[l] += p
			}
		}
	}
}

// fillLogRows recomputes every object's summed answer log-likelihoods from
// logConfT, adding the answers in ObjectView order onto zero.
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

// fillLogConfT recomputes every worker's log-confusion block.
func (ix *ScoreIndex) fillLogConfT() {
	mm := ix.m * ix.m
	for w, f := range ix.probSet.Confusions {
		fillLogConfBlockT(ix.logConfT[w*mm:(w+1)*mm], f, ix.m)
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
// hypothetical scorer: the frontier M-step accumulators, the staged blocks of
// every touched worker, and the ripple rows with their logit and factor
// accumulators. A scratch is owned by exactly one goroutine; scoring a
// candidate allocates nothing once its buffers have grown to the largest
// frontier and ripple seen (asserted by a testing.AllocsPerRun test).
//
// One candidate's m hypotheses e(o) = h are scored together. Pinning o to h
// adds 1 to exactly one soft count of each touched worker — the cell (true
// h, answered a₀), a₀ being the worker's answer on o — so the worker's
// re-estimated block under hypothesis h differs from the block with o's row
// left out only in true-label column h. Every staged entry therefore comes
// in two variants per label l: "other" (hypothesis h ≠ l, shared by m−1
// hypotheses) and "own" (h = l). Both are accumulated with exactly the
// per-cell operation sequence of a single-hypothesis re-estimate, so each
// hypothesis sees the bits it would see if it were scored alone.
type HypoScratch struct {
	ix *ScoreIndex
	// confT is the frontier M-step's soft-count accumulator with the
	// candidate's row left out, in the answered-label-major layout of
	// ScoreIndex.logConfT; own[h] is cell (h, a₀) under hypothesis h, and
	// sums holds the m "other" then the m "own" column sums.
	confT []float64
	own   []float64
	sums  []float64
	// staged holds, per touched worker, one 4m-float run per answered label
	// a: the "other" and "own" re-estimated-minus-current log entries
	// (m each), then their exponentials. After the touched workers' runs
	// come the accumulators of the ripple rows hit more than once, each a
	// 4m-float run laid out like a staged run: the "other" and "own" logit
	// changes Δ, then the products Π of their exponentials.
	staged []float64
	// ripple lists the candidate's ripple rows in first-seen order, and
	// pos[slot] is the offset in staged of the row's sums: of its first
	// hit's staged run while the row has one hit (that run is its sums, so
	// it is read in place), and of its own accumulator, which starts as a
	// copy of that run, from its second hit on.
	// hits counts each row's touched answers (the factors in its Π). seen
	// maps an object to its ripple slot: seen[o] − base is o's slot when it
	// lies in [0, len(ripple)), and negative otherwise. Each candidate moves
	// base past every slot it handed out, so no clearing is needed between
	// candidates.
	ripple []int
	pos    []int
	hits   []int32
	seen   []int32
	base   int32
	// row holds one ripple row's logits and factors for the m-label loop.
	row []float64
	// deltaH holds each hypothesis' entropy change.
	deltaH []float64
	// fallbacks counts the ripple rows whose entropy was taken with exp
	// because their factors could not be trusted.
	fallbacks int
	// generic makes a binary scratch score its ripple rows with the m-label
	// loop instead of the binary kernel; the kernel-equality test sets it.
	generic bool
}

// NewHypoScratch prepares a per-goroutine scratch for hypothetical scoring.
// EnsureHypoTables is run on the index if it has not been already; callers
// that share the index across goroutines must have run it before fanning
// out.
func (ix *ScoreIndex) NewHypoScratch() *HypoScratch {
	ix.EnsureHypoTables()
	m := ix.m
	return &HypoScratch{
		ix:     ix,
		confT:  make([]float64, m*m),
		own:    make([]float64, m),
		sums:   make([]float64, 2*m),
		row:    make([]float64, 4*m),
		seen:   make([]int32, ix.n),
		base:   1,
		deltaH: make([]float64, m),
	}
}

// grow returns s resliced to length n. A too-small s is replaced by one of
// at least twice its capacity, so a scratch that meets ever larger
// candidates reallocates O(log) times instead of once per new maximum. The
// contents are not preserved: every caller overwrites what it reads.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// maxFreeScratches bounds the free list of an index: enough for the scoring
// goroutines of a few concurrent rankings. Scratches released beyond it are
// left to the garbage collector.
const maxFreeScratches = 16

// AcquireHypoScratch takes a scratch from the index's free list, or prepares
// a new one (NewHypoScratch) when the list is empty. Scores do not depend on
// which scratch computes them. Return the scratch with ReleaseHypoScratch
// once its goroutine has scored its candidates; it must not be used after.
// Safe for concurrent use.
func (ix *ScoreIndex) AcquireHypoScratch() *HypoScratch {
	ix.freeMu.Lock()
	if k := len(ix.free); k > 0 {
		sc := ix.free[k-1]
		ix.free = ix.free[:k-1]
		ix.freeMu.Unlock()
		sc.fallbacks = 0
		return sc
	}
	ix.freeMu.Unlock()
	return ix.NewHypoScratch()
}

// ReleaseHypoScratch puts a scratch of this index back on its free list. The
// list lives as long as the index: it survives Rebase (the scratch keeps only
// buffers and the seen stamps, which stay valid for a refilled index of the
// same shape) and is dropped with the index when the engine builds a new
// one.
// Safe for concurrent use.
func (ix *ScoreIndex) ReleaseHypoScratch(sc *HypoScratch) {
	if sc.ix != ix {
		return
	}
	ix.freeMu.Lock()
	if len(ix.free) < maxFreeScratches {
		ix.free = append(ix.free, sc)
	}
	ix.freeMu.Unlock()
}

// factorLogLimit bounds |log Π| for a ripple row's product of factors to be
// trusted: e^±700 is well inside the normal float64 range, so no product of
// factors whose logs sum to at most 700 in magnitude (or any prefix of one)
// underflows, goes subnormal, or overflows.
const factorLogLimit = 700

// ConditionalUncertainty estimates H(P | o) (Eq. 8) with one
// frontier-restricted hypothetical EM pass over all labels: the expectation,
// over the candidate's current label distribution, of the total uncertainty
// after the hypothetical validation e(o) = l. Labels with zero probability
// are skipped, mirroring the exact scorer.
//
// Per hypothesis the pinned row's entropy drops to zero; the confusion rows
// of the workers who answered o are re-estimated against the pinned row
// (frontier M-step); and the posterior rows of every other object those
// workers answered are recomputed (frontier E-step), folding each entropy
// change into the maintained index total. Priors stay at the current fixed
// point — pinning one row moves them by O(1/n), part of the documented
// approximation.
func (sc *HypoScratch) ConditionalUncertainty(object int) float64 {
	ix := sc.ix
	m := ix.m
	run := 4 * m
	probs := ix.probSet.Assignment.RowSlice(object)

	// Frontier M-step: every answering worker's block under all m
	// hypotheses, staged in scratch as differences to the index's block so
	// the shared index stays untouched. The touched workers' answer count,
	// reach, bounds the number of ripple rows, and at most reach/2 of them
	// can be hit more than once.
	touched := ix.answers.ObjectView(object)
	reach := 0
	for _, wa := range touched {
		reach += len(ix.answers.WorkerView(wa.Worker))
	}
	stagedLen := len(touched) * m * run
	sc.staged = grow(sc.staged, stagedLen+reach/2*run)
	maxStaged := 0.0
	for i, wa := range touched {
		maxStaged = math.Max(maxStaged, sc.stageWorker(sc.staged[i*m*run:(i+1)*m*run], wa.Worker, object))
	}
	// A row may multiply up to maxHits factors, each within e^±maxStaged.
	maxHits := int32(math.MaxInt32)
	if maxStaged > 0 {
		maxHits = int32(math.Min(factorLogLimit/maxStaged, math.MaxInt32))
	}

	// Frontier E-step, from the touched workers' side: every answer of a
	// touched worker adds its staged log entries to the Δ of the answered
	// object and multiplies their exponentials into its Π.
	sc.rippleWalk(object, touched, stagedLen, reach, run)

	// Validated ripple rows stay pinned at zero entropy. Each hypothesis
	// sums its row entropy changes in ripple order.
	for h := range sc.deltaH {
		sc.deltaH[h] = -ix.entropies[object]
	}
	if m == 2 && !sc.generic {
		sc.binaryRipple(probs, maxHits)
	} else {
		validation := ix.probSet.Validation
		row := sc.row
		for slot, r := range sc.ripple {
			if validation.Get(r) != model.NoLabel {
				continue
			}
			// Turn the row's sums into its hypothetical logits x and
			// factors q = R·Π, "other" and "own" variants alike.
			sums := sc.staged[sc.pos[slot]:][:run]
			lr := ix.logRows[r*m : (r+1)*m]
			rx := ix.rowExp[r*m : (r+1)*m]
			for l, v := range lr {
				b := ix.logPriors[l] + v
				row[l] = sums[l] + b
				row[m+l] = sums[m+l] + b
				row[2*m+l] = sums[2*m+l] * rx[l]
				row[3*m+l] = sums[3*m+l] * rx[l]
			}
			sc.addRowEntropies(row, probs, sc.hits[slot] <= maxHits, ix.entropies[r])
		}
	}

	expected := 0.0
	for h, p := range probs {
		if p <= 0 {
			continue
		}
		hv := ix.totalH + sc.deltaH[h]
		if hv < 0 {
			hv = 0
		}
		expected += p * hv
	}
	return expected
}

// rippleWalk gathers a candidate's ripple rows from its touched workers'
// side: every answer of a touched worker folds the staged run of its label
// into the answered object's sums, adding the run's first 2m floats (the
// logit changes) and multiplying the rest (their exponentials, if staged).
// Objects shared by several touched workers get one slot, in first-seen
// order; a row hit once reads its staged run in place, a row hit again gets
// an accumulator after the stagedLen staged floats. It returns the largest
// number of hits of any row.
func (sc *HypoScratch) rippleWalk(object int, touched []model.WorkerAnswer, stagedLen, reach, run int) int32 {
	ix := sc.ix
	m := ix.m
	sc.pos = grow(sc.pos, reach)
	sc.hits = grow(sc.hits, reach)
	sc.ripple = grow(sc.ripple, reach)
	if int(sc.base) > math.MaxInt32-ix.n {
		clear(sc.seen)
		sc.base = 1
	}
	base := sc.base
	sc.ripple = sc.ripple[:0]
	next := stagedLen
	maxHits := int32(1)
	for i, wa := range touched {
		st := i * m * run
		for _, oa := range ix.answers.WorkerView(wa.Worker) {
			r := oa.Object
			if r == object {
				continue
			}
			src := st + int(oa.Label)*run
			slot := int(sc.seen[r] - base)
			if slot < 0 {
				// A first hit's sums are its own entries, which is what
				// adding them to 0 and multiplying them into 1 gives; the
				// row reads them where they were staged.
				slot = len(sc.ripple)
				sc.seen[r] = base + int32(slot)
				sc.ripple = append(sc.ripple, r)
				sc.pos[slot] = src
				sc.hits[slot] = 1
				continue
			}
			at := sc.pos[slot]
			if sc.hits[slot] == 1 {
				copy(sc.staged[next:next+run], sc.staged[at:at+run])
				at, sc.pos[slot] = next, next
				next += run
			}
			dst := sc.staged[at : at+run]
			add := sc.staged[src : src+run]
			for j, v := range add[:2*m] {
				dst[j] += v
			}
			prod := dst[2*m:]
			for j, v := range add[2*m:] {
				prod[j] *= v
			}
			sc.hits[slot]++
			maxHits = max(maxHits, sc.hits[slot])
		}
	}
	sc.base += int32(len(sc.ripple))
	return maxHits
}

// addRowEntropies adds one ripple row's entropy change, its hypothetical
// entropy minus its current entropy hr, to deltaH[h] for every hypothesis h
// with positive probability.
//
// acc holds the row's "other" and "own" logits x_l = b_l + Δ_l (b =
// logPriors + logRows[r]) and factors q_l = R_l·Π_l, R the index's
// exp(b − max b) and Π the product of the row's staged exponentials; under
// hypothesis h, label h reads the "own" variants. With arg the maximal
// logit, e_l = exp(x_l − x_arg) = q_l/q_arg, S = Σ e_l and
// T = Σ e_l·(x_l − x_arg), the posterior is e_l/S and its entropy is
// log S − T/S: one log and no exp. When the factors cannot be trusted — too
// many of them (trusted false), or some q_l zero, subnormal or non-finite —
// the row takes its m−1 exponentials directly.
func (sc *HypoScratch) addRowEntropies(acc, probs []float64, trusted bool, hr float64) {
	m := len(probs)
	for h, p := range probs {
		if p <= 0 {
			continue
		}
		// col(l) is label l's logit in acc: "other" at l, "own" at m+l; its
		// factor sits 2m further on.
		col := func(l int) int {
			if l == h {
				return m + l
			}
			return l
		}
		arg := 0
		maxLog := acc[col(0)]
		for l := 1; l < m; l++ {
			if x := acc[col(l)]; x > maxLog {
				arg, maxLog = l, x
			}
		}
		qArg := acc[2*m+col(arg)]
		s, t := 0.0, 0.0
		ok := trusted && isNormal(qArg)
		if ok {
			for l := 0; l < m; l++ {
				i := col(l)
				q := acc[2*m+i]
				ok = ok && isNormal(q)
				e := q / qArg
				s += e
				t += e * (acc[i] - maxLog)
			}
		}
		if !ok {
			sc.fallbacks++
			s, t = 1, 0
			for l := 0; l < m; l++ {
				if l == arg {
					continue
				}
				d := acc[col(l)] - maxLog
				e := math.Exp(d)
				s += e
				t += e * d
			}
		}
		sc.deltaH[h] += math.Log(s) - t/s - hr
	}
}

// binaryRipple is addRowEntropies over every unvalidated ripple row of a
// binary candidate, in ripple order, with both hypotheses' logits, factors
// and entropy changes held in locals. It forms each row's logits and factors
// as the m-label loop does and takes S and T with exactly the operations,
// in exactly the order, of addRowEntropies — strict > for the maximal
// logit, the same trust test and exp fallback, s and t summed from 0 — so
// deltaH and fallbacks come out bit-identical to the m-label loop's. The
// two hypotheses run the same code on different inputs; it is written out
// twice because a function that size is not inlined, and a call per row and
// hypothesis made BenchmarkHypoScorer/m=2 measurably slower.
func (sc *HypoScratch) binaryRipple(probs []float64, maxHits int32) {
	ix := sc.ix
	validation := ix.probSet.Validation
	lp0, lp1 := ix.logPriors[0], ix.logPriors[1]
	live0, live1 := probs[0] > 0, probs[1] > 0
	d0, d1 := sc.deltaH[0], sc.deltaH[1]
	fallbacks := 0
	for slot, r := range sc.ripple {
		if validation.Get(r) != model.NoLabel {
			continue
		}
		sums := sc.staged[sc.pos[slot]:][:8]
		lr := ix.logRows[2*r:][:2]
		rx := ix.rowExp[2*r:][:2]
		b0 := lp0 + lr[0]
		b1 := lp1 + lr[1]
		// The "other" (o) and "own" (w) logits and factors of both labels.
		xo0, xo1, xw0, xw1 := sums[0]+b0, sums[1]+b1, sums[2]+b0, sums[3]+b1
		qo0, qo1, qw0, qw1 := sums[4]*rx[0], sums[5]*rx[1], sums[6]*rx[0], sums[7]*rx[1]
		trusted := sc.hits[slot] <= maxHits
		hr := ix.entropies[r]
		// Hypothesis 0 reads label 0's "own" variants and label 1's
		// "other" ones; hypothesis 1 the reverse.
		if live0 {
			x0, x1, q0, q1 := xw0, xo1, qw0, qo1
			arg, maxLog, qArg := 0, x0, q0
			if x1 > maxLog {
				arg, maxLog, qArg = 1, x1, q1
			}
			s, t := 0.0, 0.0
			ok := trusted && isNormal(qArg)
			if ok {
				ok = isNormal(q0)
				e := q0 / qArg
				s += e
				t += e * (x0 - maxLog)
				ok = ok && isNormal(q1)
				e = q1 / qArg
				s += e
				t += e * (x1 - maxLog)
			}
			if !ok {
				fallbacks++
				s, t = binaryFallback(x0, x1, maxLog, arg)
			}
			d0 += math.Log(s) - t/s - hr
		}
		if live1 {
			x0, x1, q0, q1 := xo0, xw1, qo0, qw1
			arg, maxLog, qArg := 0, x0, q0
			if x1 > maxLog {
				arg, maxLog, qArg = 1, x1, q1
			}
			s, t := 0.0, 0.0
			ok := trusted && isNormal(qArg)
			if ok {
				ok = isNormal(q0)
				e := q0 / qArg
				s += e
				t += e * (x0 - maxLog)
				ok = ok && isNormal(q1)
				e = q1 / qArg
				s += e
				t += e * (x1 - maxLog)
			}
			if !ok {
				fallbacks++
				s, t = binaryFallback(x0, x1, maxLog, arg)
			}
			d1 += math.Log(s) - t/s - hr
		}
	}
	sc.deltaH[0], sc.deltaH[1] = d0, d1
	sc.fallbacks += fallbacks
}

// binaryFallback is addRowEntropies' exp fallback for a binary row: S and T
// from the one exponential of the non-maximal logit.
func binaryFallback(x0, x1, maxLog float64, arg int) (s, t float64) {
	d := x1 - maxLog
	if arg == 1 {
		d = x0 - maxLog
	}
	s, t = 1, 0
	e := math.Exp(d)
	s += e
	t += e * d
	return s, t
}

// isNormal reports whether v is a positive, finite, normal float64 (false
// for NaN).
func isNormal(v float64) bool {
	return v >= minNormal && v <= math.MaxFloat64
}

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// stageWorker re-estimates worker w's confusion matrix with the assignment
// row of hypoObject pinned to each label in turn — the frontier M-step of
// every hypothetical validation of hypoObject, which must not mutate the
// shared assignment matrix — and writes the staged runs of w into dst. It
// returns the largest magnitude among the staged log entries.
//
// One walk over w's answers accumulates the soft counts with hypoObject's
// row left out (confT) plus, per hypothesis h, the one cell the pinned row
// adds to (own[h]), using the same per-cell operation sequence as a
// single-hypothesis re-estimate: adds in ascending true-label order per
// answer in answer order, eps smoothing, per-true-label column
// normalization in ascending answered-label order with the uniform fallback.
// (The pinned row adds 0 to every other cell, which leaves the sum's bits
// unchanged.)
func (sc *HypoScratch) stageWorker(dst []float64, w, hypoObject int) float64 {
	ix := sc.ix
	m := ix.m
	run := 4 * m
	u := ix.probSet.Assignment
	confT, own := sc.confT, sc.own
	clear(confT)
	a0 := -1
	for _, oa := range ix.answers.WorkerView(w) {
		a := int(oa.Label)
		cells := confT[a*m : (a+1)*m]
		if oa.Object == hypoObject {
			a0 = a
			for h, c := range cells {
				own[h] = c + 1
			}
			continue
		}
		row := u.RowSlice(oa.Object)
		for l, p := range row {
			cells[l] += p
		}
		if a == a0 {
			for h, p := range row {
				own[h] += p
			}
		}
	}
	for i := range confT {
		confT[i] += ix.smoothing
	}
	for h := range own {
		own[h] += ix.smoothing
	}
	other, ownSum := sc.sums[:m], sc.sums[m:]
	for l := 0; l < m; l++ {
		so, sw := 0.0, 0.0
		for a := 0; a < m; a++ {
			c := confT[a*m+l]
			so += c
			if a == a0 {
				c = own[l]
			}
			sw += c
		}
		other[l], ownSum[l] = so, sw
	}

	cur := ix.logConfT[w*m*m : (w+1)*m*m]
	maxAbs := 0.0
	for a := 0; a < m; a++ {
		out := dst[a*run : (a+1)*run]
		for l := 0; l < m; l++ {
			c := confT[a*m+l]
			d := stagedLog(c, other[l], m) - cur[a*m+l]
			if a == a0 {
				c = own[l]
			}
			e := stagedLog(c, ownSum[l], m) - cur[a*m+l]
			out[l], out[m+l] = d, e
			out[2*m+l], out[3*m+l] = math.Exp(d), math.Exp(e)
			maxAbs = math.Max(maxAbs, math.Max(math.Abs(d), math.Abs(e)))
		}
	}
	return maxAbs
}

// stagedLog returns the log of one re-estimated confusion cell, count/sum,
// with the M-step's uniform fallback for a non-positive column sum and the
// hypo tables' 1e-12 floor for a non-positive cell.
func stagedLog(count, sum float64, m int) float64 {
	p := 1 / float64(m)
	if sum > 0 {
		p = count / sum
	}
	if p <= 0 {
		p = 1e-12
	}
	return math.Log(p)
}

// rankBoundK3 bounds |f‴| for the binary entropy f as a function of the
// logit gap z. With u = z/2, t = tanh u and p(1−p) = (1−t²)/4 = sech²u/4,
// differentiating f′(z) = −z·p(1−p) twice more gives
//
//	f‴(z) = p(1−p)·(2t + u(1 − 3t²)),
//
// so |f‴| ≤ ½·|t|(1−t²) + ½·|u|·sech²u, using |1 − 3t²| ≤ 2. The first term
// is at most ½·2/(3√3) ≈ 0.1925 (t(1−t²) peaks at t = 1/√3); the second at
// most ½·½, because cosh²u ≥ 1 + u² gives |u|·sech²u ≤ |u|/(1+u²) ≤ ½.
// Hence sup|f‴| ≤ 0.4425 (the true supremum is about 0.2174;
// TestRankBoundK3 checks both on a dense grid).
const rankBoundK3 = 0.45

// RankBound returns an upper bound on the information gain the scorer
// computes for object o, ix.TotalUncertainty() − ConditionalUncertainty(o),
// at a fraction of its cost; +Inf when no bound can be given. The index must
// have its rank-bound tables (EnsureRankBounds).
//
// It runs the scorer's frontier M-step and ripple walk, with two changes.
// The stage subtracts the candidate's row from the index's per-worker soft
// counts instead of re-summing the worker's answers, and stages no
// exponentials. Each ripple row then adds, in place of the log of its
// hypothetical entropy, a Taylor lower bound on its entropy change under
// hypothesis h: with δ the change of its logit gap (hypothesis 0:
// sums[1] − sums[2]; hypothesis 1: sums[3] − sums[0]),
//
//	f(z+δ) − H_r ≥ E + F·δ + S·δ² − (K₃/6)·|δ|³,
//
// Taylor's theorem with K₃ ≥ sup|f‴| (rankBoundK3), floored at −1 because
// an entropy change is at least −H_r > −ln 2. Validated rows, the pinned
// row's entropy, the p_h weights and the clamp at zero are the scorer's.
// A lower bound on every hypothesis' entropy change is an upper bound on
// the gain, once the float-error pad of rankBoundPad is taken off each
// change.
func (sc *HypoScratch) RankBound(object int) float64 {
	ix := sc.ix
	const m, run = 2, 4
	probs := ix.probSet.Assignment.RowSlice(object)
	touched := ix.answers.ObjectView(object)
	reach := 0
	for _, wa := range touched {
		reach += len(ix.answers.WorkerView(wa.Worker))
	}
	stagedLen := len(touched) * m * run
	sc.staged = grow(sc.staged, stagedLen+reach/2*run)
	maxStaged, rho := 0.0, 0.0
	for i, wa := range touched {
		ms, r := sc.boundStage(sc.staged[i*m*run:(i+1)*m*run], wa.Worker, int(wa.Label), probs)
		maxStaged, rho = max(maxStaged, ms), max(rho, r)
	}
	if math.IsInf(rho, 1) {
		return math.Inf(1)
	}
	maxHits := sc.rippleWalk(object, touched, stagedLen, reach, run)

	validation := ix.probSet.Validation
	k := rankBoundK3 / 6
	d0 := -ix.entropies[object]
	d1 := d0
	for slot, r := range sc.ripple {
		if validation.Get(r) != model.NoLabel {
			continue
		}
		sums := sc.staged[sc.pos[slot]:][:run]
		t := ix.taylor[3*r:][:3]
		e, f, s := t[0], t[1], t[2]
		x := sums[1] - sums[2]
		b := e + x*(f+x*(s-k*math.Abs(x)))
		if b < -1 {
			b = -1
		}
		d0 += b
		x = sums[3] - sums[0]
		b = e + x*(f+x*(s-k*math.Abs(x)))
		if b < -1 {
			b = -1
		}
		d1 += b
	}
	pad := sc.rankBoundPad(len(sc.ripple), float64(maxHits), maxStaged, rho)
	expected := 0.0
	for h, d := range [2]float64{d0, d1} {
		p := probs[h]
		if p <= 0 {
			continue
		}
		hv := ix.totalH + (d - pad)
		if hv < 0 {
			hv = 0
		}
		expected += p * hv
	}
	bound := ix.totalH - expected
	if math.IsNaN(bound) {
		return math.Inf(1)
	}
	return bound
}

// rankBoundPad returns the amount RankBound takes off each hypothesis'
// entropy change so that its bound also holds against the float results of
// the scorer, for a candidate with n ripple rows, hit at most hits times
// each, staged log entries of magnitude at most maxStaged and soft-count
// error ratio rho (boundStage). With ε = 2⁻⁵² it covers, generously:
//
//   - each row's rounding in the scorer and in the bound: logits x = b + Δ
//     of magnitude at most Λ = maxLogit + hits·maxStaged carry absolute
//     errors of a few ε·Λ, a product of hits staged factors a relative
//     error of hits·ε, entropy moves by at most sup|f′| ≈ 0.224 per unit
//     of logit, and log, division and the Taylor polynomial (each term below
//     5 where it is not floored, since |δ| ≥ 4 floors it) add a few ε each:
//     128·ε·(1 + Λ + hits) per row;
//   - both sequential sums of n + 1 terms of magnitude at most 1: ε·(n+1)²
//     each;
//   - totalH + d, the p_h-weighted sum and the final totalH − expected, in
//     the scorer and in the bound: 8·ε·(totalH + n + 1);
//   - the stage: a subtracted soft count differs from the scorer's re-sum by
//     at most rho relative, so a staged log by 2·rho, a row's δ by
//     4·hits·rho, and, f being 0.224-Lipschitz, its entropy by hits·rho.
func (sc *HypoScratch) rankBoundPad(n int, hits, maxStaged, rho float64) float64 {
	const eps = 0x1p-52
	rows := float64(n)
	lambda := sc.ix.maxLogit + hits*maxStaged + hits
	return eps*(128*rows*(1+lambda)+2*(rows+1)*(rows+1)+8*(sc.ix.totalH+rows+1)) + 2*rows*hits*rho
}

// boundStage is stageWorker for RankBound: it writes worker w's "other"
// and "own" staged log entries (2m floats per answered label, no
// exponentials) with the candidate's row, answered a₀, subtracted from the
// index's soft counts instead of re-summing w's answers. It returns the
// largest staged magnitude and rho, a bound on the relative difference of
// any subtracted count from the scorer's re-sum: both sum at most n_w terms
// of at most 1 onto counts of total n_w (error ≤ n_w²·ε each), the
// subtraction adds ε relative, and the smallest cell, smoothing included,
// divides. rho is +Inf when a cell is not positive.
func (sc *HypoScratch) boundStage(dst []float64, w, a0 int, row []float64) (maxAbs, rho float64) {
	ix := sc.ix
	const m, run = 2, 4
	confT, own := sc.confT, sc.own
	copy(confT, ix.softCounts[w*m*m:(w+1)*m*m])
	minCell := math.Inf(1)
	for l := 0; l < m; l++ {
		c := confT[a0*m+l] - row[l]
		own[l] = c + 1 + ix.smoothing
		confT[a0*m+l] = c
	}
	for i := range confT {
		confT[i] += ix.smoothing
		minCell = min(minCell, confT[i])
	}
	if !(minCell > 0) {
		return 0, math.Inf(1)
	}
	nw := float64(len(ix.answers.WorkerView(w)))
	rho = 0x1p-52 * (2*nw*nw + nw + 1) / minCell

	other, ownSum := sc.sums[:m], sc.sums[m:]
	for l := 0; l < m; l++ {
		so, sw := 0.0, 0.0
		for a := 0; a < m; a++ {
			c := confT[a*m+l]
			so += c
			if a == a0 {
				c = own[l]
			}
			sw += c
		}
		other[l], ownSum[l] = so, sw
	}
	cur := ix.logConfT[w*m*m : (w+1)*m*m]
	for a := 0; a < m; a++ {
		out := dst[a*run : (a+1)*run]
		for l := 0; l < m; l++ {
			c := confT[a*m+l]
			d := stagedLog(c, other[l], m) - cur[a*m+l]
			if a == a0 {
				c = own[l]
			}
			e := stagedLog(c, ownSum[l], m) - cur[a*m+l]
			out[l], out[m+l] = d, e
			maxAbs = max(maxAbs, math.Abs(d), math.Abs(e))
		}
	}
	return maxAbs, rho
}
