// Package core implements the guided answer-validation process — the primary
// contribution of the paper. It glues answer aggregation (i-EM), expert
// guidance (uncertainty-driven, worker-driven, hybrid), faulty-worker
// quarantining and the confirmation check for erroneous expert input into the
// iterative validation engine of Algorithm 1 (§3.2 and §5.4).
//
// The engine is a pay-as-you-go process: after every expert validation the
// probabilistic answer set is updated and a deterministic assignment can be
// instantiated at any time.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"unsafe"

	"crowdval/internal/aggregation"
	"crowdval/internal/cost"
	"crowdval/internal/cverr"
	"crowdval/internal/guidance"
	"crowdval/internal/model"
	"crowdval/internal/spamdetect"
)

// Expert is the validating expert: asked about an object, it returns the
// label it asserts to be correct. Implementations may be interactive (a
// human behind a UI) or simulated (an oracle over the ground truth).
type Expert interface {
	ValidateObject(object int) (model.Label, error)
}

// ExpertFunc adapts a plain function to the Expert interface.
type ExpertFunc func(object int) (model.Label, error)

// ValidateObject implements Expert.
func (f ExpertFunc) ValidateObject(object int) (model.Label, error) { return f(object) }

// Goal is a predicate over the engine state; the validation process stops as
// soon as the goal is satisfied. A nil goal never stops the process early.
type Goal func(e *Engine) bool

// UncertaintyBelow returns a goal that is satisfied once the total
// uncertainty H(P) of the probabilistic answer set drops below threshold.
func UncertaintyBelow(threshold float64) Goal {
	return func(e *Engine) bool { return e.Uncertainty() < threshold }
}

// Config parameterizes the validation engine.
type Config struct {
	// Strategy selects the next object to validate. Nil uses the hybrid
	// strategy.
	Strategy guidance.Strategy
	// Detector assesses workers for the worker-driven guidance and the
	// quarantine. Nil uses default thresholds.
	Detector *spamdetect.Detector
	// Confirmation enables the periodic check for erroneous expert
	// validations (§5.5). Nil disables the check.
	Confirmation *guidance.ConfirmationCheck
	// Budget caps the number of expert validations. Zero or negative means
	// "up to one validation per object".
	Budget int
	// Goal optionally stops the process before the budget is exhausted.
	Goal Goal
	// HandleFaultyWorkers enables the quarantine of detected faulty workers
	// when the worker-driven branch selected the object (Algorithm 1,
	// line 12). It is enabled by default through NewEngineContext when the hybrid
	// or worker-driven strategy is used.
	HandleFaultyWorkers bool
	// Parallel enables parallel candidate scoring in the guidance step.
	// Because the scorers themselves fan out across MaxParallelism
	// goroutines, the engine hands them Parallelism-1 copies of its i-EM
	// aggregator and its detector.
	Parallel bool
	// MaxParallelism caps the number of goroutines of the parallel stages:
	// guidance candidate scoring, the sharded E-/M-steps of the i-EM
	// aggregator and the sharded worker assessment of the default detector
	// (< 1: GOMAXPROCS). Aggregation and detection results are identical
	// for every setting.
	MaxParallelism int
	// Delta enables the delta-incremental aggregation path: the engine
	// tracks the dirty object/worker frontier of every mutation (ingested
	// answers, validations, quarantine changes, growth) and hands it to its
	// i-EM aggregator, which refines only the frontier before a full-sweep
	// settle phase re-establishes the global fixed point. Results are fixed
	// points of the full EM within the configured tolerance, so they agree
	// with full recomputes up to that tolerance (not bit-for-bit).
	Delta aggregation.DeltaConfig
	// DeltaScoring routes uncertainty-driven candidate scoring through the
	// delta-accelerated hypothetical scorer (guidance.Context.DeltaScore):
	// a hypothetical validation of object o dirties only o plus its
	// answering workers, so one candidate costs a frontier-restricted EM
	// pass instead of a full warm EM re-aggregation. Selections agree with
	// the exact full-EM scorer up to a documented information-gain
	// tolerance, so they are no longer bit-identical to the reference
	// scorer. The worker-driven strategy has one exact scorer and is
	// unaffected.
	DeltaScoring bool
	// DisableSelectionCache turns off the maintained-view serving caches: the
	// in-place ScoreIndex refill (Rebase) and the per-strategy ranking
	// memoization. Every aggregation then drops the scoring index, and every
	// selection allocates and builds a new one and rescans — the
	// pre-maintained-view behavior.
	// It is a pure performance knob for benchmarking and differential testing:
	// selections are bit-identical either way.
	DisableSelectionCache bool
	// Rand drives stochastic components (hybrid roulette wheel). Nil uses a
	// fixed seed so runs are reproducible.
	Rand *rand.Rand
}

// IterationRecord captures everything that happened in one iteration of the
// validation process; the experiment harness consumes these records.
type IterationRecord struct {
	// Iteration is the 1-based index of the validation step.
	Iteration int
	// Object and Label are the validated object and the expert's answer.
	Object int
	Label  model.Label
	// WorkerDrivenUsed reports whether the worker-driven branch chose the
	// object (always false for non-hybrid strategies other than
	// WorkerDriven itself).
	WorkerDrivenUsed bool
	// ErrorRate is ε_i = 1 − U_{i-1}(o, l): how much the expert's answer
	// surprised the previous aggregation.
	ErrorRate float64
	// HybridWeight is z_{i+1} after the update (0 for non-hybrid runs).
	HybridWeight float64
	// FaultyWorkers is the number of workers flagged in this iteration.
	FaultyWorkers int
	// MaskedWorkers and RestoredWorkers list quarantine changes.
	MaskedWorkers   []int
	RestoredWorkers []int
	// Uncertainty is H(P) after the conclude step.
	Uncertainty float64
	// EMIterations is the number of EM iterations of the conclude step.
	EMIterations int
	// ConfirmationSuspects lists validations flagged as erroneous by the
	// confirmation check in this iteration (empty when the check did not
	// run or found nothing).
	ConfirmationSuspects []guidance.SuspectValidation
	// RevisedObjects lists objects whose validation was re-elicited after
	// being flagged; each revision counts as one unit of expert effort.
	RevisedObjects []int
}

// Engine drives the iterative validation process over one answer set.
type Engine struct {
	cfg Config

	// working is the engine's only answer set and the one the aggregation
	// sees; quarantined workers' answers are masked out of it and live in
	// the quarantine's stash.
	working    *model.AnswerSet
	validation *model.Validation
	probSet    *model.ProbabilisticAnswerSet
	assignment model.DeterministicAssignment

	aggregator *aggregation.IncrementalEM
	strategy   guidance.Strategy
	detector   *spamdetect.Detector
	// costBudget is the monetary budget (nil: none). Its spent count always
	// equals the validations applied, because every charge is refunded when
	// its integration rolls back; WAL replay relies on that to rebuild it.
	costBudget *cost.Tracker
	// scoringAggregator and scoringDetector are the instances handed to the
	// guidance step. When parallel candidate scoring is enabled they are
	// Parallelism-1 copies: scoring already fans out across MaxParallelism
	// goroutines, and nesting GOMAXPROCS-wide EM/detection shards inside
	// each scorer would oversubscribe the CPU.
	scoringAggregator *aggregation.IncrementalEM
	scoringDetector   *spamdetect.Detector
	quarantine        *spamdetect.Quarantine
	hybrid            *guidance.Hybrid
	// lastWorkerDriven records whether the most recent selection used
	// the worker-driven branch.
	lastWorkerDriven bool

	// selMu guards the mutable selection state — the hybrid roulette draw
	// (and any other strategy-owned pseudo-random state), lastWorkerDriven
	// and the lazily built scoreIndex — so selections may run concurrently
	// with each other and with read-only state access (a serving tier
	// selects under its read lock). The expensive candidate scoring runs
	// outside the lock; only the draw and the index build are serialized.
	// Selections must still not run concurrently with mutations
	// (IntegrateContext, AddAnswers, ...): that exclusion is the caller's,
	// e.g. a single-writer RWMutex in the serving tier.
	selMu sync.Mutex
	// scoreIndex is the per-aggregation guidance scoring index (per-object
	// entropies, hypothetical-scoring tables), built lazily on the first
	// selection. It is a maintained view: when the probabilistic state moves
	// it is kept and refilled in place for the successor result
	// (ScoreIndex.Rebase) at the next selection — one refill per coalesced
	// batch, reusing its buffers — instead of being allocated anew. A new
	// index is built only when the shape changed (growth) or the caches are
	// disabled.
	scoreIndex *aggregation.ScoreIndex
	// rankCache memoizes the most recent ranking per stateless scoring
	// strategy, keyed by strategy instance, so repeated SelectNextKContext calls on
	// an unchanged state are served in O(k) from the maintained view, and a
	// larger k continues the ranking instead of re-scoring every candidate.
	// Entries are never modified once stored. Guarded by selMu; dropped
	// whenever the probabilistic state moves.
	rankCache map[guidance.Strategy]*guidance.Ranking
	// counters are the engine's cumulative statistics. The index and rank
	// counters are written under selMu; the aggregation counters by the
	// mutation paths, which are exclusive.
	counters Counters

	iteration   int
	effortSpent int
	history     []IterationRecord

	// confirmedValidations records, per object, the label the expert has
	// explicitly re-confirmed after the confirmation check flagged it. Such
	// validations are not re-elicited again unless they change.
	confirmedValidations map[int]model.Label
}

// NewEngineContext prepares a validation engine over a copy of the given
// answer set and runs the initial aggregation (iteration 0) under ctx. The
// engine never reads or writes the caller's set again.
func NewEngineContext(ctx context.Context, answers *model.AnswerSet, cfg Config) (*Engine, error) {
	if answers == nil {
		return nil, fmt.Errorf("core: %w", cverr.ErrNilAnswerSet)
	}
	e := newEngineShell(answers.Clone(), cfg)
	res, err := e.aggregator.AggregateContext(ctx, e.working, e.validation, nil)
	if err != nil {
		return nil, fmt.Errorf("core: initial aggregation: %w", err)
	}
	e.setProbSet(res.ProbSet)
	e.counters.EMIterations += int64(res.Iterations)
	return e, nil
}

// setProbSet installs a new probabilistic state: it re-instantiates the
// deterministic assignment and reconciles the maintained selection state
// (scoring index, memoized rankings) with the move. Installing the state the
// engine already holds — a no-op settle — is free and keeps every cache
// valid.
func (e *Engine) setProbSet(p *model.ProbabilisticAnswerSet) {
	if p == e.probSet {
		return
	}
	e.probSet = p
	e.assignment = p.Instantiate()
	e.refreshScoreIndex()
}

// refreshScoreIndex reconciles the maintained selection state with a new
// probabilistic answer set, under the selection lock so in-flight selections
// on other goroutines never observe a half-moved view. Memoized rankings
// always describe exactly one state and are dropped. The scoring index is
// kept for an in-place refill at the next selection (the maintained-view
// path) unless the caches are disabled, in which case it is dropped for a
// from-scratch build.
func (e *Engine) refreshScoreIndex() {
	e.selMu.Lock()
	defer e.selMu.Unlock()
	clear(e.rankCache)
	if e.cfg.DisableSelectionCache {
		e.scoreIndex = nil
	}
}

// newEngineShell wires up an engine over answers, which it adopts as its
// working set — components, quarantine, bookkeeping — without running the
// initial aggregation. NewEngineContext aggregates afterwards; RestoreEngine
// installs a snapshotted probabilistic state instead.
func newEngineShell(answers *model.AnswerSet, cfg Config) *Engine {
	e := &Engine{cfg: cfg, working: answers}
	e.validation = model.NewValidation(answers.NumObjects())
	e.aggregator = &aggregation.IncrementalEM{
		Config: aggregation.EMConfig{Parallelism: cfg.MaxParallelism},
		Delta:  cfg.Delta,
	}
	if cfg.Delta.Enabled {
		// The working answer set records the dirty frontier; every mutation
		// path (ingest, quarantine, growth) flows through it, and explicit
		// validation changes are marked at their call sites.
		e.working.TrackDirty()
	}
	e.detector = cfg.Detector
	if e.detector == nil {
		e.detector = &spamdetect.Detector{Parallelism: cfg.MaxParallelism}
	}
	e.scoringAggregator = e.aggregator
	e.scoringDetector = e.detector
	if cfg.Parallel {
		serialAggregator := *e.aggregator
		serialAggregator.Config.Parallelism = 1
		e.scoringAggregator = &serialAggregator
		serialDetector := *e.detector
		serialDetector.Parallelism = 1
		e.scoringDetector = &serialDetector
	}
	e.strategy = cfg.Strategy
	if e.strategy == nil {
		rng := cfg.Rand
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		e.strategy = &guidance.Hybrid{Rand: rng}
		e.cfg.HandleFaultyWorkers = true
	}
	if h, ok := e.strategy.(*guidance.Hybrid); ok {
		e.hybrid = h
		e.cfg.HandleFaultyWorkers = true
		// Give the hybrid stable branch instances: ChooseBranch otherwise
		// mints a fresh strategy value per draw, which would defeat the
		// per-strategy ranking memoization (and grow its map per selection).
		if h.Worker == nil {
			h.Worker = &guidance.WorkerDriven{}
		}
		if h.Uncertainty == nil {
			h.Uncertainty = &guidance.UncertaintyDriven{}
		}
	}
	e.quarantine = spamdetect.NewQuarantine()
	e.confirmedValidations = make(map[int]model.Label)
	e.rankCache = make(map[guidance.Strategy]*guidance.Ranking)
	return e
}

// RestoredState is the dynamic part of an engine captured by a session
// snapshot: everything NewEngineContext cannot rebuild from the answer set and the
// configuration alone.
type RestoredState struct {
	// Validation holds the expert validations collected so far.
	Validation *model.Validation
	// Quarantined lists the workers whose answers were masked at snapshot
	// time; their answers move out of the answer set into the quarantine
	// stash.
	Quarantined []int
	// Assignment and Confusions are the probabilistic state of the last
	// aggregation, restored bit-for-bit.
	Assignment *model.AssignmentMatrix
	Confusions []*model.ConfusionMatrix
	// Iteration and EffortSpent restore the bookkeeping counters.
	Iteration   int
	EffortSpent int
	// LastWorkerDriven restores whether the most recent selection used the
	// worker-driven branch (relevant when a snapshot was taken between
	// SelectNextContext and IntegrateContext).
	LastWorkerDriven bool
	// ConfirmedValidations restores the labels the expert re-confirmed after
	// the confirmation check flagged them.
	ConfirmedValidations map[int]model.Label
	// History restores the per-iteration records.
	History []IterationRecord
}

// RestoreEngine rebuilds an engine from a snapshot: the full answer set, the
// dynamic state, and a configuration equivalent to the one the engine was
// created with. The engine adopts answers without a copy and moves the
// quarantined workers' answers out of it into the quarantine stash, so the
// caller must not use the set again. No aggregation runs — the restored
// probabilistic state is installed as-is, so a resumed engine continues
// bit-for-bit where the snapshotted one stopped.
func RestoreEngine(answers *model.AnswerSet, st *RestoredState, cfg Config) (*Engine, error) {
	if answers == nil {
		return nil, fmt.Errorf("core: %w", cverr.ErrNilAnswerSet)
	}
	if st == nil || st.Validation == nil || st.Assignment == nil {
		return nil, fmt.Errorf("core: %w: missing restored state", cverr.ErrBadSnapshot)
	}
	if st.Validation.NumObjects() != answers.NumObjects() ||
		st.Assignment.NumObjects() != answers.NumObjects() ||
		st.Assignment.NumLabels() != answers.NumLabels() ||
		len(st.Confusions) != answers.NumWorkers() {
		return nil, fmt.Errorf("core: %w: restored state does not match the answer set dimensions",
			cverr.ErrBadSnapshot)
	}
	e := newEngineShell(answers, cfg)
	e.validation = st.Validation.Clone()
	for _, w := range st.Quarantined {
		if w < 0 || w >= answers.NumWorkers() {
			return nil, fmt.Errorf("core: %w: quarantined worker %d out of range", cverr.ErrBadSnapshot, w)
		}
		e.quarantine.Mask(e.working, w)
	}
	confusions := make([]*model.ConfusionMatrix, len(st.Confusions))
	for w, c := range st.Confusions {
		if c == nil {
			return nil, fmt.Errorf("core: %w: missing confusion matrix for worker %d", cverr.ErrBadSnapshot, w)
		}
		confusions[w] = c.Clone()
	}
	e.setProbSet(&model.ProbabilisticAnswerSet{
		Answers:    e.working,
		Validation: e.validation.Clone(),
		Assignment: st.Assignment.Clone(),
		Confusions: confusions,
	})
	// Reconstructing the quarantine masks marked the frontier dirty, but the
	// restored probabilistic state already is the fixed point over exactly
	// this working set; the next aggregation starts from a clean frontier.
	e.working.ClearDirty()
	e.iteration = st.Iteration
	e.effortSpent = st.EffortSpent
	e.lastWorkerDriven = st.LastWorkerDriven
	for o, l := range st.ConfirmedValidations {
		e.confirmedValidations[o] = l
	}
	e.history = append(e.history, st.History...)
	return e, nil
}

// Answers returns the engine's answer set: every answer except those of
// quarantined workers, which the quarantine stash holds (see EachAnswer).
// Its dimensions are the engine's. Callers must not mutate it.
func (e *Engine) Answers() *model.AnswerSet { return e.working }

// AnswerCount returns the number of answers the engine holds, stashed ones
// included.
func (e *Engine) AnswerCount() int {
	count := e.working.AnswerCount()
	for _, w := range e.quarantine.MaskedWorkers() {
		count += len(e.quarantine.Stashed(w))
	}
	return count
}

// EachAnswer calls fn for every answer the engine holds, stashed ones
// included, in object-major, worker-ascending order: it merges each object's
// working row with the stashed answers of that object.
func (e *Engine) EachAnswer(fn func(model.Answer)) {
	masked := e.quarantine.MaskedWorkers()
	stashes := make([][]model.ObjectAnswer, len(masked))
	for i, w := range masked {
		stashes[i] = e.quarantine.Stashed(w)
	}
	for o := 0; o < e.working.NumObjects(); o++ {
		row := e.working.ObjectView(o)
		for i, w := range masked {
			if s := stashes[i]; len(s) > 0 && s[0].Object == o {
				for ; len(row) > 0 && row[0].Worker < w; row = row[1:] {
					fn(model.Answer{Object: o, Worker: row[0].Worker, Label: row[0].Label})
				}
				fn(model.Answer{Object: o, Worker: w, Label: s[0].Label})
				stashes[i] = s[1:]
			}
		}
		for _, wa := range row {
			fn(model.Answer{Object: o, Worker: wa.Worker, Label: wa.Label})
		}
	}
}

// ConfirmedValidations returns a copy of the validations the expert
// explicitly re-confirmed after the confirmation check flagged them.
func (e *Engine) ConfirmedValidations() map[int]model.Label {
	out := make(map[int]model.Label, len(e.confirmedValidations))
	for o, l := range e.confirmedValidations {
		out[o] = l
	}
	return out
}

// LastWorkerDriven reports whether the most recent selection used the
// worker-driven branch.
func (e *Engine) LastWorkerDriven() bool { return e.lastWorkerDriven }

// budget returns the effective effort budget.
func (e *Engine) budget() int {
	if e.cfg.Budget > 0 {
		return e.cfg.Budget
	}
	return e.working.NumObjects()
}

// Iteration returns the number of completed validation steps.
func (e *Engine) Iteration() int { return e.iteration }

// EffortSpent returns the total number of expert interactions, including
// revisions triggered by the confirmation check.
func (e *Engine) EffortSpent() int { return e.effortSpent }

// EffortRatio returns the spent effort relative to the number of objects.
func (e *Engine) EffortRatio() float64 {
	return float64(e.effortSpent) / float64(e.working.NumObjects())
}

// Validation returns the current expert validation function.
func (e *Engine) Validation() *model.Validation { return e.validation }

// ProbSet returns the current probabilistic answer set.
func (e *Engine) ProbSet() *model.ProbabilisticAnswerSet { return e.probSet }

// Assignment returns the current deterministic assignment.
func (e *Engine) Assignment() model.DeterministicAssignment { return e.assignment.Clone() }

// Uncertainty returns H(P) of the current probabilistic answer set.
func (e *Engine) Uncertainty() float64 { return aggregation.Uncertainty(e.probSet) }

// History returns the per-iteration records collected so far.
func (e *Engine) History() []IterationRecord { return e.history }

// Counters are an engine's cumulative statistics for serving tiers. They are
// not snapshot state: a restored engine counts from zero. Each field is
// summed, across sessions, into the server.Stats field of the same name.
type Counters struct {
	// EMIterations counts the EM iterations of every aggregation the engine
	// ran: initial, per-validation, batch, ingestion and revision.
	EMIterations int64
	// DeltaIterations counts the frontier-restricted iterations of the
	// delta-incremental path; zero when that path is off or never ran.
	DeltaIterations int64
	// DeltaAccepted, DeltaStalled and DeltaLargeFrontier count the
	// delta-path aggregations by outcome (aggregation.DeltaOutcome): the
	// frontier phase accepted or stalled at its iteration cap, or the call
	// fell back to the full path for an oversized frontier. Aggregations
	// without the delta path count nowhere.
	DeltaAccepted      int64
	DeltaStalled       int64
	DeltaLargeFrontier int64
	// ScoreIndexBuilds and ScoreIndexPatches count how often the guidance
	// scoring index was allocated and built — at the first selection, after
	// growth, after a resume, and at every selection that follows a state
	// change under DisableSelectionCache — and how often it was refilled in
	// place for a successor aggregation result of the same shape
	// (ScoreIndex.Rebase), which recomputes every table.
	ScoreIndexBuilds  int64
	ScoreIndexPatches int64
	// RankCandidatesScored and RankCandidatesPruned count the candidates
	// rankings scored exactly and those fresh rankings left unscored, at a
	// bound below their top k. A ranking continued for a larger k adds the
	// candidates it scores to RankCandidatesScored, so a candidate can count
	// in both.
	RankCandidatesScored int64
	RankCandidatesPruned int64
}

// addOutcome counts one delta-path aggregation by its outcome.
func (c *Counters) addOutcome(o aggregation.DeltaOutcome) {
	switch o {
	case aggregation.DeltaAccepted:
		c.DeltaAccepted++
	case aggregation.DeltaStalled:
		c.DeltaStalled++
	case aggregation.DeltaLargeFrontier:
		c.DeltaLargeFrontier++
	}
}

// Counters returns the engine's cumulative statistics. It reads under the
// selection lock, so it may run concurrently with selections.
func (e *Engine) Counters() Counters {
	e.selMu.Lock()
	defer e.selMu.Unlock()
	return e.counters
}

// QuarantinedWorkers returns the indices of currently quarantined workers.
func (e *Engine) QuarantinedWorkers() []int { return e.quarantine.MaskedWorkers() }

// CostBudget returns the engine's monetary budget, nil when it has none.
// Callers must not mutate it; SetCostBudget replaces it.
func (e *Engine) CostBudget() *cost.Tracker { return e.costBudget }

// SetCostBudget installs or replaces the monetary budget under the §6.8 cost
// model (nil removes it). The engine adopts the tracker as given, spent count
// included, and mutates it in place: every validation it applies is charged,
// a rolled-back integration refunds its charge, and Done reports true once
// the tracker admits no further validation.
func (e *Engine) SetCostBudget(t *cost.Tracker) { e.costBudget = t }

// Done reports whether the process should stop: goal reached, effort or
// monetary budget exhausted, or no unvalidated object left.
func (e *Engine) Done() bool {
	if e.cfg.Goal != nil && e.cfg.Goal(e) {
		return true
	}
	if e.effortSpent >= e.budget() {
		return true
	}
	if e.costBudget != nil && e.costBudget.Exhausted() {
		return true
	}
	return e.validation.Count() == e.validation.NumObjects()
}

// guidanceContext assembles the strategy context for the current state.
func (e *Engine) guidanceContext(ctx context.Context) *guidance.Context {
	return &guidance.Context{
		Ctx:            ctx,
		Answers:        e.working,
		ProbSet:        e.probSet,
		Aggregator:     e.scoringAggregator,
		Detector:       e.scoringDetector,
		Parallel:       e.cfg.Parallel,
		MaxParallelism: e.cfg.MaxParallelism,
		DeltaScore:     e.cfg.DeltaScoring,
	}
}

// ensureScoreIndex returns the guidance scoring index for the current
// probabilistic state. Callers hold selMu. An index retained across an
// aggregation is refilled in place for the current state
// (ScoreIndex.Rebase); a failed refill (growth, shape change) and a missing
// index fall back to the from-scratch build. For delta scoring the
// hypothetical tables are (re)filled as part of the same step.
func (e *Engine) ensureScoreIndex() *aggregation.ScoreIndex {
	if ix := e.scoreIndex; ix != nil && ix.ProbSet() != e.probSet {
		if ix.Rebase(e.working, e.probSet) {
			e.counters.ScoreIndexPatches++
		} else {
			e.scoreIndex = nil
		}
	}
	if e.scoreIndex == nil {
		ix := aggregation.NewScoreIndex(e.working, e.probSet, aggregation.EMConfigOf(e.scoringAggregator))
		if e.cfg.DeltaScoring {
			ix.EnsureHypoTables()
		}
		e.scoreIndex = ix
		e.counters.ScoreIndexBuilds++
	}
	return e.scoreIndex
}

// WithSelectionLock runs fn while holding the selection mutex. Snapshotters
// use it to read the strategy state (pseudo-random stream, hybrid weight,
// last branch) consistently while selections may be in flight on other
// goroutines; fn must not call back into selection.
func (e *Engine) WithSelectionLock(fn func()) {
	e.selMu.Lock()
	defer e.selMu.Unlock()
	fn()
}

// aggregate runs the conclude step over the current evidence. With the
// delta path enabled the working set tracks the dirty frontier accumulated
// since the last successful aggregation, and aggregate hands it to the
// aggregator; without it the frontier is nil and the call is a plain full
// aggregation. The frontier is cleared on success; a failed or cancelled
// aggregation keeps it, so the next call folds the same mutations in.
func (e *Engine) aggregate(ctx context.Context) (*aggregation.Result, error) {
	var delta *aggregation.Delta
	if e.working.DirtyTracking() {
		delta = &aggregation.Delta{Objects: e.working.DirtyObjects(), Workers: e.working.DirtyWorkers()}
		if len(delta.Objects) == 0 && len(delta.Workers) == 0 && e.probSet != nil {
			// No-op settle: nothing dirtied the state since the previous
			// fixed point (e.g. an ingest whose answers were all stashed
			// with the quarantine), so that fixed point still holds.
			// Returning it as-is also keeps the maintained index and
			// memoized rankings valid — setProbSet sees the same pointer
			// — instead of forcing a pointless refill.
			return &aggregation.Result{ProbSet: e.probSet, Converged: true}, nil
		}
	}
	res, err := e.aggregator.AggregateDeltaContext(ctx, e.working, e.validation, e.probSet, delta)
	if err != nil {
		return nil, err
	}
	e.working.ClearDirty()
	e.counters.DeltaIterations += int64(res.DeltaIterations)
	e.counters.addOutcome(res.DeltaOutcome)
	return res, nil
}

// SelectNextContext runs the guidance strategy and returns the object the
// expert should validate next (step (1) of Algorithm 1); ctx cancels the
// candidate scoring. It does not modify the validation state; callers elicit
// the expert input themselves and feed it back through IntegrateContext.
// Interactive applications use SelectNextContext/IntegrateContext directly;
// batch runs use StepContext or RunContext, which combine them with an
// Expert. It fails with ErrSessionDone when every object is validated or the
// goal is reached, and with ErrBudgetExhausted when the effort budget is
// spent.
func (e *Engine) SelectNextContext(ctx context.Context) (int, error) {
	ranked, err := e.selectRanked(ctx, 1)
	if err != nil {
		return -1, err
	}
	return ranked[0].Object, nil
}

// SelectNextKContext is the batched form of SelectNextContext: one scoring
// pass ranks the top k candidates (fewer when fewer remain unvalidated),
// ordered by score descending with ties broken toward the smaller object
// index. SelectNextKContext(ctx, 1) selects exactly the object
// SelectNextContext would, and consumes the same pseudo-random state (one
// hybrid roulette draw per call), so mixed single/batched selections keep
// snapshots and resumed sessions aligned. The effort preconditions are those
// of SelectNextContext — the budget bounds validations, not suggestions, so a
// ranking may be longer than the remaining budget.
func (e *Engine) SelectNextKContext(ctx context.Context, k int) ([]guidance.ScoredObject, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k = %d (must be at least 1)", cverr.ErrOutOfRange, k)
	}
	return e.selectRanked(ctx, k)
}

// selectRanked is the shared selection path: preconditions and the stateful
// strategy-branch decision run under the selection lock, the expensive
// read-only candidate scoring outside it, so a serving tier can run
// selections under its read lock concurrently with other selections and
// views. A Ranker ranks exactly k (continuing a memoized ranking of the
// same state when it holds one); other strategies select through SelectK.
func (e *Engine) selectRanked(ctx context.Context, k int) ([]guidance.ScoredObject, error) {
	sel, err := e.beginSelection(ctx, k)
	if err != nil {
		return nil, err
	}
	defer sel.release()
	if sel.cached != nil {
		return sel.cached, nil
	}
	var ranked []guidance.ScoredObject
	if ranker, ok := sel.exec.(guidance.Ranker); ok {
		r, work, err := ranker.Rank(sel.gctx, sel.from, k)
		e.selMu.Lock()
		e.counters.RankCandidatesScored += int64(work.Scored)
		e.counters.RankCandidatesPruned += int64(work.Pruned)
		e.selMu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("core: selection failed: %w", err)
		}
		ranked, _ = r.Top(k)
		if sel.cacheable {
			e.storeRanking(sel.exec, sel.gctx, r)
		}
	} else if ranked, err = sel.exec.SelectK(sel.gctx, k); err != nil {
		return nil, fmt.Errorf("core: selection failed: %w", err)
	}
	if len(ranked) == 0 {
		// Defensive: a caller-supplied strategy may legitimately return an
		// empty ranking when its own filtering leaves no candidate.
		return nil, fmt.Errorf("core: selection failed: %w", cverr.ErrNoCandidates)
	}
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked, nil
}

// selection carries one selection's execution state out of beginSelection.
type selection struct {
	exec    guidance.Strategy
	gctx    *guidance.Context
	release func()
	// cached, when non-nil, is the ranking served straight from the
	// per-strategy memoization — the maintained-view fast path; exec and
	// gctx are unset and no scoring runs.
	cached []guidance.ScoredObject
	// from is the memoized ranking of the current state that could not
	// serve k on its own; the selection continues it.
	from *guidance.Ranking
	// cacheable marks exec as a stateless scoring strategy whose ranking of
	// the current state may be memoized.
	cacheable bool
}

// storeRanking memoizes r, a ranking of gctx's state for exec that no one
// else holds: every candidate, the certified prefix first. It runs outside
// the selection lock (after the unlocked scoring), so it re-takes the lock
// and drops the store if the probabilistic state moved since the scoring
// started — a stale ranking must never be memoized against a newer state.
func (e *Engine) storeRanking(exec guidance.Strategy, gctx *guidance.Context, r *guidance.Ranking) {
	e.selMu.Lock()
	defer e.selMu.Unlock()
	if gctx.ProbSet != e.probSet {
		return
	}
	if len(e.rankCache) >= 8 {
		// Defensive bound for caller-supplied strategies that are not
		// pointer-stable across selections; the engine's own strategies are
		// at most a handful of stable instances.
		clear(e.rankCache)
	}
	e.rankCache[exec] = r
}

// RankingMemo is an engine's memoized rankings detached from it, so that an
// engine restored from a snapshot of the same state can serve them without
// re-ranking: RestoreEngine installs the probabilistic state bit for bit, a
// ranking is a pure function of that state, and the hybrid draw is consumed
// before the memo lookup, so a carried ranking is exact. Entries are keyed
// by the role their strategy plays in the engine, because a restored engine
// has new strategy instances. The zero value and nil are the empty memo.
type RankingMemo struct {
	state   memoState
	entries map[memoRole]*guidance.Ranking
}

// memoRole names a strategy by the part it plays in an engine: the engine's
// own strategy, or the hybrid's uncertainty or worker branch.
type memoRole uint8

const (
	roleStrategy memoRole = iota
	roleUncertainty
	roleWorker
)

// memoState is the part of an engine's state and configuration a carried
// memo is checked against before an engine adopts it: shape, progress,
// scoring setup and a hash of the probabilistic state's bits. It does not
// prove two states equal — carrying a memo only from a parked engine to the
// engine resumed from that park's snapshot does — but it refuses a memo
// handed to an engine that has moved on or never held that state.
type memoState struct {
	objects, workers, labels, answers, validated int
	iteration, effort                            int
	strategy                                     string
	deltaScoring                                 bool
	candidateLimit                               [3]int
	probHash                                     uint64
}

// memoRoles returns the roles of the engine's cacheable strategies with
// their instances.
func (e *Engine) memoRoles() map[memoRole]guidance.Strategy {
	if e.hybrid != nil {
		return map[memoRole]guidance.Strategy{roleUncertainty: e.hybrid.Uncertainty, roleWorker: e.hybrid.Worker}
	}
	return map[memoRole]guidance.Strategy{roleStrategy: e.strategy}
}

// memoState samples the engine's memoState. Callers hold selMu.
func (e *Engine) memoState() memoState {
	st := memoState{
		objects:      e.working.NumObjects(),
		workers:      e.working.NumWorkers(),
		labels:       e.working.NumLabels(),
		answers:      e.AnswerCount(),
		validated:    e.validation.Count(),
		iteration:    e.iteration,
		effort:       e.effortSpent,
		strategy:     e.strategy.Name(),
		deltaScoring: e.cfg.DeltaScoring,
		probHash:     probHash(e.probSet),
	}
	for role, s := range e.memoRoles() {
		switch s := s.(type) {
		case *guidance.UncertaintyDriven:
			st.candidateLimit[role] = s.CandidateLimit
		case *guidance.WorkerDriven:
			st.candidateLimit[role] = s.CandidateLimit
		}
	}
	return st
}

// probHash folds the bits of a probabilistic state's assignment rows and
// confusion matrices into one FNV-1a style hash.
func probHash(p *model.ProbabilisticAnswerSet) uint64 {
	h := uint64(14695981039346656037)
	mix := func(f float64) {
		h ^= math.Float64bits(f)
		h *= 1099511628211
	}
	for o := 0; o < p.Assignment.NumObjects(); o++ {
		for _, f := range p.Assignment.RowSlice(o) {
			mix(f)
		}
	}
	for _, c := range p.Confusions {
		m := model.Label(c.NumLabels())
		for l := model.Label(0); l < m; l++ {
			for l2 := model.Label(0); l2 < m; l2++ {
				mix(c.At(l, l2))
			}
		}
	}
	return h
}

// TakeRankingMemo detaches the engine's memoized rankings of its current
// state, keyed by role. The engine keeps none of them. It returns nil when
// nothing is memoized. A serving tier takes the memo in the same exclusive
// section that snapshots the engine for parking, so both describe one state.
func (e *Engine) TakeRankingMemo() *RankingMemo {
	e.selMu.Lock()
	defer e.selMu.Unlock()
	memo := &RankingMemo{entries: make(map[memoRole]*guidance.Ranking)}
	for role, s := range e.memoRoles() {
		if entry, ok := e.rankCache[s]; ok {
			memo.entries[role] = entry
		}
	}
	clear(e.rankCache)
	if len(memo.entries) == 0 {
		return nil
	}
	memo.state = e.memoState()
	return memo
}

// InstallRankingMemo hands a carried memo to an engine restored from the
// snapshot taken together with it, so its next selections are served from
// the memo instead of a fresh ranking. It reports whether the engine adopted
// the memo; it refuses an empty memo, a memo whose state sample does not
// match the engine's, and any memo when the selection cache is disabled.
func (e *Engine) InstallRankingMemo(memo *RankingMemo) bool {
	if memo == nil || len(memo.entries) == 0 || e.cfg.DisableSelectionCache {
		return false
	}
	e.selMu.Lock()
	defer e.selMu.Unlock()
	if memo.state != e.memoState() {
		return false
	}
	roles := e.memoRoles()
	for role, entry := range memo.entries {
		e.rankCache[roles[role]] = entry
	}
	return true
}

// Bytes returns the memory the memo's rankings hold.
func (m *RankingMemo) Bytes() int64 {
	if m == nil {
		return 0
	}
	var n int64
	for _, entry := range m.entries {
		n += int64(cap(entry.Entries)) * int64(unsafe.Sizeof(guidance.ScoredObject{}))
	}
	return n
}

// beginSelection performs the serialized prologue of one selection under the
// selection lock: the goal and budget preconditions, the stateful
// strategy-branch decision (hybrid roulette draw, lastWorkerDriven
// bookkeeping), the memoized-ranking lookup and the scoring-index
// build-or-refill. The hybrid draw is consumed before the cache lookup, so
// cache hits and misses consume identical pseudo-random state and snapshots
// stay aligned either way. For the stateless scoring strategies it releases
// the lock before returning, so the expensive scoring runs unlocked;
// stateful or unknown strategies (Random, custom implementations) keep the
// lock for the whole selection and the returned release function drops it
// afterwards.
func (e *Engine) beginSelection(ctx context.Context, k int) (*selection, error) {
	e.selMu.Lock()
	if e.cfg.Goal != nil && e.cfg.Goal(e) {
		e.selMu.Unlock()
		return nil, fmt.Errorf("core: goal reached: %w", cverr.ErrSessionDone)
	}
	// Count instead of materializing UnvalidatedObjects: the precondition
	// runs under the lock on every selection, and allocating an index slice
	// per request is measurable at serving rates.
	if e.validation.Count() == e.validation.NumObjects() {
		e.selMu.Unlock()
		return nil, fmt.Errorf("core: all objects are already validated: %w", cverr.ErrSessionDone)
	}
	if e.effortSpent >= e.budget() {
		e.selMu.Unlock()
		return nil, fmt.Errorf("core: %w: spent %d of %d", cverr.ErrBudgetExhausted, e.effortSpent, e.budget())
	}
	if e.costBudget != nil && e.costBudget.Exhausted() {
		e.selMu.Unlock()
		return nil, fmt.Errorf("core: %w: no further validation fits the monetary budget (spent %d)",
			cverr.ErrBudgetExhausted, e.costBudget.Spent)
	}
	// Bail before the strategy runs: an already-cancelled context must not
	// consume state (in particular not the hybrid roulette draw), so retrying
	// after cancellation stays deterministic.
	if err := ctx.Err(); err != nil {
		e.selMu.Unlock()
		return nil, err
	}
	exec := e.strategy
	if e.hybrid != nil {
		exec = e.hybrid.ChooseBranch()
	}
	// The hybrid's worker branch and the pure worker-driven strategy are
	// both a *WorkerDriven.
	_, e.lastWorkerDriven = exec.(*guidance.WorkerDriven)
	sel := &selection{exec: exec, release: func() {}}
	switch exec.(type) {
	case *guidance.UncertaintyDriven, *guidance.WorkerDriven, *guidance.Baseline:
		// Stateless scorers: serve from the memoized ranking when the state
		// has not moved, otherwise share the per-aggregation index and score
		// outside the lock.
		sel.cacheable = !e.cfg.DisableSelectionCache
		if entry := e.rankCache[exec]; sel.cacheable && entry != nil {
			if hit, ok := entry.Top(k); ok && len(hit) > 0 {
				e.selMu.Unlock()
				sel.cached = hit
				return sel, nil
			}
			sel.from = entry
		}
		sel.gctx = e.guidanceContext(ctx)
		sel.gctx.Index = e.ensureScoreIndex()
		if _, ok := exec.(*guidance.UncertaintyDriven); ok && e.cfg.DeltaScoring {
			// Its bound pass reads the index's rank-bound tables; build
			// them here, since the index is shared outside the lock.
			sel.gctx.Index.EnsureRankBounds()
		}
		e.selMu.Unlock()
		return sel, nil
	default:
		sel.gctx = e.guidanceContext(ctx)
		sel.release = e.selMu.Unlock
		return sel, nil
	}
}

// IntegrateContext records the expert's validation of an object and performs
// the remaining steps of one iteration of Algorithm 1: faulty-worker
// detection and quarantining, hybrid-weight update, confirmation check
// (without automatic re-elicitation — suspects are reported in the record),
// and the conclude/filter steps that refresh the probabilistic answer set and
// the deterministic assignment. All mutations are rolled back when the
// detection, confirmation check or aggregation fails or is cancelled, so a
// context.Canceled return leaves the engine exactly as it was before the
// call and the validation can be resubmitted.
func (e *Engine) IntegrateContext(ctx context.Context, object int, label model.Label) (IterationRecord, error) {
	records, err := e.integrate(ctx, []ValidationInput{{Object: object, Label: label}}, e.lastWorkerDriven)
	if err != nil {
		return IterationRecord{}, err
	}
	return records[0], nil
}

// ReviseValidationContext replaces an earlier expert validation (typically
// after the confirmation check flagged it) and re-aggregates. The revision
// counts as one additional unit of expert effort. The revised object is
// appended to the latest history record. A cancelled aggregation restores
// the previous validation and leaves the engine state untouched.
func (e *Engine) ReviseValidationContext(ctx context.Context, object int, label model.Label) error {
	if !e.validation.Validated(object) {
		return fmt.Errorf("%w: object %d has no validation to revise", cverr.ErrNotValidated, object)
	}
	if !label.Valid(e.working.NumLabels()) {
		return fmt.Errorf("%w: label %d for object %d (task has %d labels)",
			cverr.ErrInvalidLabel, label, object, e.working.NumLabels())
	}
	prev := e.validation.Get(object)
	e.validation.Set(object, label)
	e.working.MarkObjectDirty(object)
	if _, err := e.conclude(ctx); err != nil {
		e.validation.Set(object, prev)
		return err
	}
	e.effortSpent++
	e.confirmedValidations[object] = label
	if len(e.history) > 0 {
		last := &e.history[len(e.history)-1]
		last.RevisedObjects = append(last.RevisedObjects, object)
	}
	return nil
}

// ValidationInput is one element of a validation batch: the expert asserts
// that label is the correct answer for object.
type ValidationInput struct {
	Object int
	Label  model.Label
}

// IntegrateBatch records a whole batch of expert validations and runs the
// expensive steps of Algorithm 1 — faulty-worker detection and the i-EM
// re-aggregation — once for the entire batch instead of once per validation.
// It is the integration path for batch expert UIs, where a validator submits
// a page of answers at a time.
//
// Semantics relative to len(inputs) sequential IntegrateContext calls: every
// validation is recorded, effort grows by len(inputs), and per-input error
// rates are measured against the probabilistic answer set from before the
// batch. The detection runs once after all validations are applied, the
// hybrid weight is updated once with the batch-mean error rate, no quarantine
// reconciliation happens (batch input is expert-pushed, not selected by the
// worker-driven branch), and the confirmation check runs at most once when
// the batch crosses a period boundary. The final probabilistic answer set is
// the i-EM fixed point over the same evidence a sequential session would
// hold, so results agree up to EM convergence tolerance.
//
// The batch is transactional: it fails as a whole (duplicate or already
// validated objects, budget overflow, cancelled context) and a failure rolls
// every mutation back.
func (e *Engine) IntegrateBatch(ctx context.Context, inputs []ValidationInput) ([]IterationRecord, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	return e.integrate(ctx, inputs, false)
}

// integrate is the one integration path behind IntegrateContext (one input)
// and IntegrateBatch (see there for the batch semantics). The quarantine is
// reconciled only when workerDriven is set, i.e. when the worker-driven
// branch selected the object (Algorithm 1, line 12). The effort and monetary
// budgets are charged after the input checks; a failure rolls every
// mutation back, the charge included.
func (e *Engine) integrate(ctx context.Context, inputs []ValidationInput, workerDriven bool) ([]IterationRecord, error) {
	seen := make(map[int]bool, len(inputs))
	for _, in := range inputs {
		if in.Object < 0 || in.Object >= e.working.NumObjects() {
			return nil, fmt.Errorf("%w: object %d (session has %d objects)",
				cverr.ErrOutOfRange, in.Object, e.working.NumObjects())
		}
		if !in.Label.Valid(e.working.NumLabels()) {
			return nil, fmt.Errorf("%w: label %d for object %d (task has %d labels)",
				cverr.ErrInvalidLabel, in.Label, in.Object, e.working.NumLabels())
		}
		if e.validation.Validated(in.Object) || seen[in.Object] {
			return nil, fmt.Errorf("%w: object %d (use ReviseValidation to change it)",
				cverr.ErrAlreadyValidated, in.Object)
		}
		seen[in.Object] = true
	}
	if e.effortSpent+len(inputs) > e.budget() {
		return nil, fmt.Errorf("core: %w: %d validations requested, spent %d of %d",
			cverr.ErrBudgetExhausted, len(inputs), e.effortSpent, e.budget())
	}
	if e.costBudget != nil {
		// Charge's exhaustion error already carries the sentinel's
		// "crowdval:" prefix — wrapping again would double it.
		if err := e.costBudget.Charge(len(inputs)); err != nil {
			return nil, err
		}
	}

	records := make([]IterationRecord, len(inputs))
	meanError := 0.0
	for i, in := range inputs {
		// Error rate ε_i = 1 − U_{i-1}(o, l).
		records[i] = IterationRecord{
			Iteration:        e.iteration + i + 1,
			Object:           in.Object,
			Label:            in.Label,
			WorkerDrivenUsed: workerDriven,
			ErrorRate:        1 - e.probSet.Assignment.Prob(in.Object, in.Label),
		}
		meanError += records[i].ErrorRate
		e.validation.Set(in.Object, in.Label)
	}
	meanError /= float64(len(inputs))
	last := &records[len(records)-1]

	// (3) Handle spammers. The detection always runs (it feeds r_i); the
	// quarantine is only applied when the worker-driven branch was used and
	// faulty-worker handling is enabled. Until the final aggregation
	// succeeds, every mutation is tracked so a failure restores the
	// pre-call state.
	var masked, restored []int
	prevWeight := 0.0
	if e.hybrid != nil {
		prevWeight = e.hybrid.Weight()
	}
	rollback := func() {
		if e.hybrid != nil {
			e.hybrid.SetWeight(prevWeight)
		}
		e.quarantine.Undo(e.working, masked, restored)
		for _, in := range inputs {
			e.validation.Set(in.Object, model.NoLabel)
		}
		if e.costBudget != nil {
			e.costBudget.Refund(len(inputs))
		}
	}
	detection, err := e.detector.DetectContext(ctx, e.working, e.validation, e.probSet.Assignment.Priors())
	if err != nil {
		rollback()
		return nil, fmt.Errorf("core: spammer detection: %w", err)
	}
	if e.cfg.HandleFaultyWorkers && workerDriven {
		masked, restored = e.quarantine.Apply(e.working, detection)
		last.MaskedWorkers = masked
		last.RestoredWorkers = restored
	}
	weight := 0.0
	if e.hybrid != nil {
		weight = e.hybrid.UpdateWeight(meanError, detection.FaultyRatio(), e.validation.Ratio())
	}

	// (3b) Confirmation check for erroneous expert input. The suspects are
	// reported in the record; revision happens in StepContext (batch mode) or is
	// left to the caller (interactive mode) via ReviseValidationContext.
	// Validations the expert already re-confirmed are not flagged again —
	// without this, a correct validation that merely disagrees with a noisy
	// crowd would be re-elicited on every check.
	if e.cfg.Confirmation != nil {
		period := e.cfg.Confirmation.EffectivePeriod()
		if (e.iteration+len(inputs))/period > e.iteration/period {
			suspects, err := e.cfg.Confirmation.CheckContext(ctx, e.working, e.validation)
			if err != nil {
				rollback()
				return nil, fmt.Errorf("core: confirmation check: %w", err)
			}
			for _, s := range suspects {
				if confirmed, ok := e.confirmedValidations[s.Object]; ok && confirmed == e.validation.Get(s.Object) {
					continue
				}
				last.ConfirmationSuspects = append(last.ConfirmationSuspects, s)
			}
		}
	}

	// (4) Integrate the validations: re-aggregate and re-instantiate.
	for _, in := range inputs {
		e.working.MarkObjectDirty(in.Object)
	}
	res, err := e.conclude(ctx)
	if err != nil {
		rollback()
		return nil, err
	}
	faulty := len(detection.FaultyWorkers())
	uncertainty := aggregation.Uncertainty(e.probSet)
	for i := range records {
		records[i].FaultyWorkers = faulty
		records[i].HybridWeight = weight
		records[i].EMIterations = res.Iterations
		records[i].Uncertainty = uncertainty
	}
	e.iteration += len(inputs)
	e.effortSpent += len(inputs)
	e.history = append(e.history, records...)
	return records, nil
}

// conclude runs the conclude step over the current evidence (see aggregate)
// and installs the result: the probabilistic state, the deterministic
// assignment and the EM statistics. A failure installs nothing.
func (e *Engine) conclude(ctx context.Context) (*aggregation.Result, error) {
	res, err := e.aggregate(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: aggregation: %w", err)
	}
	e.setProbSet(res.ProbSet)
	e.counters.EMIterations += int64(res.Iterations)
	return res, nil
}

// AddAnswers folds newly arrived crowd answers into the running session —
// the pay-as-you-go ingestion path for streaming crowds. Answers may target
// existing objects and workers or previously unseen ones; the sparse model,
// the validation function and the probabilistic state grow on demand
// (AnswerSet.Grow), new objects bootstrap from their vote frequencies, new
// workers from soft-count confusion matrices, and everything is folded in by
// warm-starting the i-EM from the previous probabilistic answer set instead
// of rebuilding the session.
//
// Answers of currently quarantined workers are stashed with the quarantine
// and surface if the worker is later cleared. The label alphabet is fixed;
// labels outside it fail with ErrInvalidLabel before anything is mutated.
// A cancelled context aborts the re-aggregation: the answers remain ingested
// and the probabilistic state stays consistent (grown, warm), so a later
// IntegrateContext or AddAnswers call picks them up.
func (e *Engine) AddAnswers(ctx context.Context, newAnswers []model.Answer) error {
	if len(newAnswers) == 0 {
		return nil
	}
	m := e.working.NumLabels()
	oldN, oldK := e.working.NumObjects(), e.working.NumWorkers()
	newN, newK := oldN, oldK
	for _, ans := range newAnswers {
		if ans.Object < 0 || ans.Worker < 0 {
			return fmt.Errorf("%w: answer for object %d by worker %d", cverr.ErrOutOfRange, ans.Object, ans.Worker)
		}
		if !ans.Label.Valid(m) {
			return fmt.Errorf("%w: label %d for object %d (task has %d labels)",
				cverr.ErrInvalidLabel, ans.Label, ans.Object, m)
		}
		if ans.Object+1 > newN {
			newN = ans.Object + 1
		}
		if ans.Worker+1 > newK {
			newK = ans.Worker + 1
		}
	}
	if newN > oldN || newK > oldK {
		if err := e.working.Grow(newN, newK); err != nil {
			return err
		}
		if err := e.validation.Grow(newN); err != nil {
			return err
		}
	}

	// Grow the warm-start state to the new dimensions: existing rows and
	// matrices carry over bit-for-bit.
	assignment := e.probSet.Assignment
	if newN > oldN {
		grown := model.NewAssignmentMatrix(newN, m)
		for o := 0; o < oldN; o++ {
			grown.SetRow(o, assignment.RowSlice(o))
		}
		assignment = grown
	}
	confusions := e.probSet.Confusions
	if newK > oldK {
		confusions = append(append([]*model.ConfusionMatrix(nil), confusions...),
			make([]*model.ConfusionMatrix, newK-oldK)...)
	}

	// Ingest: each answer goes either into the working set or, for a
	// quarantined worker, into its stash. Indices and labels were validated
	// above and the dimensions grown, so the inserts cannot fail.
	for _, ans := range newAnswers {
		if !e.quarantine.Stash(ans.Worker, model.ObjectAnswer{Object: ans.Object, Label: ans.Label}) {
			if err := e.working.SetAnswer(ans.Object, ans.Worker, ans.Label); err != nil {
				return err
			}
		}
	}

	// Bootstrap the state of new objects (vote frequencies, mirroring the
	// majority-vote cold start) and new workers (soft-count confusions,
	// mirroring the M-step).
	for o := oldN; o < newN; o++ {
		row := make([]float64, m)
		total := 0
		for _, wa := range e.working.ObjectView(o) {
			row[wa.Label]++
			total++
		}
		if total == 0 {
			for l := range row {
				row[l] = 1 / float64(m)
			}
		} else {
			for l := range row {
				row[l] /= float64(total)
			}
		}
		assignment.SetRow(o, row)
	}
	for w := oldK; w < newK; w++ {
		c := model.NewConfusionMatrix(m)
		for _, oa := range e.working.WorkerView(w) {
			for l := 0; l < m; l++ {
				c.Add(model.Label(l), oa.Label, assignment.Prob(oa.Object, model.Label(l)))
			}
		}
		c.Smooth(aggregation.DefaultSmoothing)
		confusions[w] = c
	}

	// Install the grown warm state before aggregating so the engine stays
	// consistent even if the aggregation below is cancelled. Without growth
	// the current state is already consistent and is kept as-is — installing
	// a fresh wrapper here would churn the maintained selection state even
	// for batches that end up dirtying nothing (e.g. fully stashed ones).
	if newN > oldN || newK > oldK {
		e.setProbSet(&model.ProbabilisticAnswerSet{
			Answers:    e.working,
			Validation: e.validation.Clone(),
			Assignment: assignment,
			Confusions: confusions,
		})
	}

	_, err := e.conclude(ctx)
	return err
}

// StepContext executes one full iteration of Algorithm 1 against an Expert:
// select an object, elicit expert input, integrate it, and — when the
// confirmation check flags suspect validations — immediately re-elicit those
// from the expert. It returns the record of the iteration; ctx cancels the
// selection, integration and re-elicitation work.
func (e *Engine) StepContext(ctx context.Context, expert Expert) (IterationRecord, error) {
	if expert == nil {
		return IterationRecord{}, fmt.Errorf("core: %w", cverr.ErrNilExpert)
	}
	object, err := e.SelectNextContext(ctx)
	if err != nil {
		return IterationRecord{}, err
	}
	label, err := expert.ValidateObject(object)
	if err != nil {
		return IterationRecord{}, fmt.Errorf("core: expert validation of object %d: %w", object, err)
	}
	// IntegrateContext and ReviseValidationContext reject labels outside the
	// alphabet with ErrInvalidLabel before mutating anything.
	record, err := e.IntegrateContext(ctx, object, label)
	if err != nil {
		return IterationRecord{}, err
	}
	for _, s := range record.ConfirmationSuspects {
		revised, err := expert.ValidateObject(s.Object)
		if err != nil {
			return IterationRecord{}, fmt.Errorf("core: revalidation of object %d: %w", s.Object, err)
		}
		if err := e.ReviseValidationContext(ctx, s.Object, revised); err != nil {
			return IterationRecord{}, err
		}
	}
	// Each revision appended its object to the latest history record, which
	// is this iteration's.
	return e.history[len(e.history)-1], nil
}

// Summary describes a completed validation run.
type Summary struct {
	Iterations  int
	EffortSpent int
	// EffortRatio is EffortSpent divided by the number of objects.
	EffortRatio float64
	// FinalUncertainty is H(P) at the end of the run.
	FinalUncertainty float64
	// GoalReached reports whether the configured goal (if any) was
	// satisfied.
	GoalReached bool
	// Assignment is the final deterministic assignment.
	Assignment model.DeterministicAssignment
	// History holds the per-iteration records.
	History []IterationRecord
}

// RunContext executes validation steps until the goal is reached, the budget
// is exhausted or every object has been validated. The optional onStep
// callback is invoked after every iteration (e.g. to record precision against
// a held ground truth); returning false from the callback stops the run
// early. Cancellation stops the loop with ctx.Err() between iterations and
// the iteration in flight rolls back cleanly, so a cancelled run leaves the
// engine resumable.
func (e *Engine) RunContext(ctx context.Context, expert Expert, onStep func(IterationRecord) bool) (*Summary, error) {
	for !e.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		record, err := e.StepContext(ctx, expert)
		if err != nil {
			return nil, err
		}
		if onStep != nil && !onStep(record) {
			break
		}
	}
	return &Summary{
		Iterations:       e.iteration,
		EffortSpent:      e.effortSpent,
		EffortRatio:      e.EffortRatio(),
		FinalUncertainty: e.Uncertainty(),
		GoalReached:      e.cfg.Goal != nil && e.cfg.Goal(e),
		Assignment:       e.Assignment(),
		History:          e.History(),
	}, nil
}
