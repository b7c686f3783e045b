package aggregation

import (
	"context"
	"math"
	"sort"

	"crowdval/internal/model"
)

// This file implements the delta-incremental i-EM path. A running session
// that ingests a small batch of new answers (or one expert validation) has a
// warm probabilistic state in which only a small frontier of objects carries
// stale posteriors: the objects the new evidence touches directly. The full
// warm-started EM still pays O(#answers · m) per iteration to re-converge
// that frontier, because every E-step sweeps all objects; on a 50 000-object
// session a 100-answer batch therefore costs dozens of full sweeps. The
// delta path instead iterates E/M-steps restricted to the dirty frontier —
// O(#frontier-answers · m) per iteration — and then hands the refined state
// to the ordinary full EM as a settle phase, which terminates as soon as one
// full sweep moves nothing beyond DeltaConfig.SettleTolerance. The settle
// phase is what makes the result trustworthy: whatever the frontier
// iterations did, the final state carries a full-sweep certificate that it
// is a fixed point of the *full* EM within the settle tolerance (the parity
// suite in the root package asserts this explicitly).

// Default delta-path parameters.
const (
	// DefaultMaxDirtyFraction is the dirty-object fraction above which the
	// delta phase is skipped: with a frontier that large, frontier iterations
	// cost almost as much as full sweeps and the settle phase would redo the
	// work anyway.
	DefaultMaxDirtyFraction = 0.25

	// DefaultSettleTolerance is the default acceptance tolerance of the
	// settle phase. A small ingest batch perturbs the confusion matrices of
	// every touched worker, and that perturbation ripples into the posteriors
	// of every object those workers ever answered — re-converging the ripple
	// to the full EMConfig.Tolerance costs a dozen full sweeps and erases the
	// delta win, while moving posteriors only in the third decimal and
	// beyond. The settle phase therefore accepts as soon as one full sweep
	// moves no posterior by more than this tolerance; because acceptance is
	// certified by a genuine full sweep on every call, the deviation from the
	// true fixed point cannot accumulate across batches (a drifted state
	// would fail the certificate and keep iterating).
	DefaultSettleTolerance = 1e-2
)

// DeltaConfig bundles the knobs of the delta-incremental aggregation path.
type DeltaConfig struct {
	// Enabled turns the delta path on. Disabled, AggregateDeltaContext
	// behaves exactly like AggregateContext.
	Enabled bool
	// MaxDirtyFraction is the largest fraction of dirty objects the delta
	// phase accepts; larger frontiers fall back to the full sweep directly.
	// Values <= 0 use DefaultMaxDirtyFraction; values >= 1 never fall back.
	MaxDirtyFraction float64
	// MaxDeltaIterations caps the frontier-restricted iterations. When the
	// frontier has not converged after the cap (a stall, e.g. an oscillating
	// contested object), the path proceeds to the full-sweep settle phase,
	// which resolves the stall with global information. Values < 1 use
	// EMConfig.MaxIterations.
	MaxDeltaIterations int
	// SettleTolerance is the acceptance tolerance of the full-sweep settle
	// phase: the delta path's result is certified to be a fixed point of the
	// full EM within this tolerance (one full E/M sweep moves no posterior
	// by more). Values <= 0 use DefaultSettleTolerance, floored at the
	// EMConfig tolerance (a settle tighter than the EM's own convergence
	// criterion would never terminate differently from the full path).
	SettleTolerance float64
}

func (c DeltaConfig) maxDirtyFraction() float64 {
	if c.MaxDirtyFraction <= 0 {
		return DefaultMaxDirtyFraction
	}
	return c.MaxDirtyFraction
}

func (c DeltaConfig) settleTolerance(em EMConfig) float64 {
	tol := c.SettleTolerance
	if tol <= 0 {
		tol = DefaultSettleTolerance
	}
	if emTol := em.tolerance(); tol < emTol {
		tol = emTol
	}
	return tol
}

// DeltaOutcome is the path one AggregateDeltaContext call took.
type DeltaOutcome uint8

// The outcomes of the delta path. DeltaAccepted and DeltaStalled end in the
// certified settle phase; DeltaLargeFrontier is the fallback, which runs the
// plain full path (AggregateContext) instead.
const (
	// DeltaNotRun: the delta path is disabled, and the call was a plain
	// full aggregation.
	DeltaNotRun DeltaOutcome = iota
	// DeltaAccepted: the frontier phase converged within its iteration cap.
	DeltaAccepted
	// DeltaStalled: the frontier phase hit DeltaConfig.MaxDeltaIterations
	// without converging; the settle phase resolved the rest.
	DeltaStalled
	// DeltaLargeFrontier: there was no usable warm state (no previous
	// result, or one of another shape), the frontier was unknown (nil
	// delta), or it was larger than DeltaConfig.MaxDirtyFraction, so the
	// frontier phase was skipped.
	DeltaLargeFrontier
)

// Delta describes the dirty frontier of one aggregation call: the objects
// whose evidence or pinned validation changed since the previous fixed point
// was computed, and the workers whose answer sets or quarantine status
// changed. Both slices are sorted and duplicate-free (model.AnswerSet's
// dirty tracking produces them in that shape).
type Delta struct {
	Objects []int
	Workers []int
}

// AggregateDeltaContext is AggregateContext specialized to a dirty frontier:
// a frontier-restricted refinement phase followed by the ordinary
// warm-started full EM as the settle phase. The result is a fixed point of
// the full EM within the settle tolerance, like a full recompute (see the
// file comment for the contract). The delta is advisory: with the delta path
// disabled the call is exactly AggregateContext (DeltaNotRun), and a nil
// delta means "everything may have changed" (DeltaLargeFrontier).
func (ie *IncrementalEM) AggregateDeltaContext(ctx context.Context, answers *model.AnswerSet, validation *model.Validation,
	prev *model.ProbabilisticAnswerSet, delta *Delta) (*Result, error) {

	if outcome := ie.deltaFallback(answers, prev, delta); outcome != DeltaAccepted {
		res, err := ie.AggregateContext(ctx, answers, validation, prev)
		if err != nil {
			return nil, err
		}
		res.DeltaOutcome = outcome
		return res, nil
	}
	validation, err := checkInputs(answers, validation)
	if err != nil {
		return nil, err
	}

	// Clone the warm state like the full warm start does: the phases below
	// own their buffers, so a cancelled run leaves prev untouched.
	assignment := prev.Assignment.Clone()
	confusions := make([]*model.ConfusionMatrix, len(prev.Confusions))
	for w, c := range prev.Confusions {
		confusions[w] = c.Clone()
	}
	pinValidated(assignment, validation)

	deltaIters, stalled, err := runDeltaEM(ctx, answers, validation, assignment, confusions, delta, ie.Config, ie.Delta)
	if err != nil {
		return nil, err
	}
	// Settle phase: the ordinary full EM loop, accepting at the (looser)
	// settle tolerance. Every iteration is a genuine full sweep, so the
	// first iteration that moves nothing beyond the tolerance doubles as the
	// fixed-point certificate of the result.
	settleCfg := ie.Config
	settleCfg.Tolerance = ie.Delta.settleTolerance(ie.Config)
	res, err := runEM(ctx, answers, validation, assignment, confusions, settleCfg)
	if err != nil {
		return nil, err
	}
	res.DeltaIterations = deltaIters
	res.DeltaOutcome = DeltaAccepted
	if stalled {
		res.DeltaOutcome = DeltaStalled
	}
	return res, nil
}

// deltaFallback decides whether a delta call may run its frontier phase:
// DeltaAccepted when it may, otherwise the outcome that skips it.
func (ie *IncrementalEM) deltaFallback(answers *model.AnswerSet, prev *model.ProbabilisticAnswerSet, delta *Delta) DeltaOutcome {
	switch {
	case !ie.Delta.Enabled:
		return DeltaNotRun
	case prev == nil || prev.Assignment == nil || len(prev.Confusions) != answers.NumWorkers() ||
		prev.Assignment.NumObjects() != answers.NumObjects() || prev.Assignment.NumLabels() != answers.NumLabels(),
		// No usable warm state above; an unknown or oversized frontier here.
		delta == nil || float64(len(delta.Objects)) > ie.Delta.maxDirtyFraction()*float64(answers.NumObjects()):
		return DeltaLargeFrontier
	}
	return DeltaAccepted
}

// FixedPointResidual measures how far a probabilistic answer set is from
// being a fixed point of the full EM: the maximal entry-wise change one full
// E-step would apply to its assignment matrix. A full-path aggregation
// leaves residuals around EMConfig.Tolerance, the delta path around
// DeltaConfig.SettleTolerance (in both cases the M-step that follows the
// accepting sweep can push the residual slightly past the acceptance
// threshold). The parity suite asserts the delta path's certificate through
// this function.
func FixedPointResidual(ctx context.Context, p *model.ProbabilisticAnswerSet, parallelism int) (float64, error) {
	validation := p.Validation
	if validation == nil {
		validation = model.NewValidation(p.Assignment.NumObjects())
	}
	n, m := p.Assignment.NumObjects(), p.Assignment.NumLabels()
	next := model.NewAssignmentMatrix(n, m)
	logConf := make([]float64, len(p.Confusions)*m*m)
	return eStep(ctx, p.Answers, validation, p.Assignment, next, p.Confusions, logConf, parallelism)
}

// runDeltaEM iterates E/M-steps restricted to the dirty frontier, mutating
// assignment and confusions in place, and returns the number of iterations it
// ran and whether it stopped at the iteration cap without converging. The
// math of one frontier row/confusion update is identical to the full
// eStep/mStepInto; the only difference is which rows are touched. Priors are
// maintained incrementally through running column sums, so every iteration
// sees the exact priors of the full assignment matrix, not just the frontier.
// The phase is deliberately serial: frontiers are small by construction
// (large ones fall back to the full, sharded path), and a serial loop is
// trivially deterministic.
func runDeltaEM(ctx context.Context, answers *model.AnswerSet, validation *model.Validation,
	u *model.AssignmentMatrix, confusions []*model.ConfusionMatrix, delta *Delta, cfg EMConfig, dcfg DeltaConfig) (int, bool, error) {

	n, m := answers.NumObjects(), answers.NumLabels()
	tol := cfg.tolerance()
	smoothing := cfg.smoothing()
	maxIter := dcfg.MaxDeltaIterations
	if maxIter < 1 {
		maxIter = cfg.maxIterations()
	}

	// Active workers: explicitly dirty ones plus every worker adjacent to a
	// dirty object — the only confusion rows whose soft counts can change
	// while updates are restricted to the frontier.
	activeSet := make(map[int]bool, len(delta.Workers))
	for _, w := range delta.Workers {
		if w >= 0 && w < len(confusions) {
			activeSet[w] = true
		}
	}
	for _, o := range delta.Objects {
		for _, wa := range answers.ObjectView(o) {
			activeSet[wa.Worker] = true
		}
	}
	workers := make([]int, 0, len(activeSet))
	for w := range activeSet {
		workers = append(workers, w)
	}
	// Iteration order over maps is random; sort for determinism of the
	// (order-sensitive) confusion updates. Objects arrive sorted.
	sort.Ints(workers)

	// Running column sums give exact priors in O(m) per iteration after one
	// O(n·m) initialization.
	colSums := make([]float64, m)
	for o := 0; o < n; o++ {
		for l := 0; l < m; l++ {
			colSums[l] += u.Prob(o, model.Label(l))
		}
	}

	logConf := make([]float64, len(confusions)*m*m)
	logPriors := make([]float64, m)
	newRow := make([]float64, m)
	iterations := 0
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return iterations, false, err
		}
		iterations++
		for l := 0; l < m; l++ {
			p := colSums[l] / float64(n)
			if p <= 0 {
				p = 1e-12
			}
			logPriors[l] = math.Log(p)
		}
		for _, w := range workers {
			fillLogConf(logConf, confusions, w, m)
		}

		diff := 0.0
		for _, o := range delta.Objects {
			posteriorRowInto(newRow, answers, validation, o, m, logPriors, logConf)
			for l := 0; l < m; l++ {
				old := u.Prob(o, model.Label(l))
				if d := math.Abs(newRow[l] - old); d > diff {
					diff = d
				}
				colSums[l] += newRow[l] - old
			}
			u.SetRow(o, newRow)
		}

		for _, w := range workers {
			reestimateConfusion(confusions[w], answers, u, w, smoothing)
		}

		if diff < tol {
			return iterations, false, nil
		}
	}
	return iterations, true, nil
}
