package crowdval

import (
	"context"
	"fmt"
	"math/rand"

	"crowdval/internal/aggregation"
	"crowdval/internal/core"
	"crowdval/internal/cost"
	"crowdval/internal/cverr"
	"crowdval/internal/guidance"
	"crowdval/internal/rng"
	"crowdval/internal/snapshot"
	"crowdval/internal/spamdetect"
)

// StrategyName selects a guidance strategy for a Session.
type StrategyName string

// Available guidance strategies.
const (
	// StrategyHybrid dynamically combines uncertainty-driven and
	// worker-driven guidance (the paper's recommended strategy).
	StrategyHybrid StrategyName = "hybrid"
	// StrategyUncertainty always selects the object with the maximal
	// expected information gain.
	StrategyUncertainty StrategyName = "uncertainty"
	// StrategyWorker always selects the object expected to unmask the most
	// faulty workers.
	StrategyWorker StrategyName = "worker"
	// StrategyBaseline selects the object with the highest entropy.
	StrategyBaseline StrategyName = "baseline"
	// StrategyRandom selects a random unvalidated object.
	StrategyRandom StrategyName = "random"
)

// sessionConfig collects the options of a Session and of the one-shot facade
// functions (Aggregate, MajorityVote, AssessWorkers, CheckValidations), which
// share the same option type.
type sessionConfig struct {
	strategy           StrategyName
	budget             int
	candidateLimit     int
	parallelism        int
	confirmationPeriod int
	spammerThreshold   float64
	sloppyThreshold    float64
	uncertaintyGoal    float64
	seed               int64
	ctx                context.Context

	deltaEnabled     bool
	deltaScoring     bool
	noSelectionCache bool

	// costBudget is the WithCostBudget tracker (nil: none); every session
	// created from the configuration charges its own copy.
	costBudget *cost.Tracker
}

// defaultSessionConfig is the configuration NewSession starts from: the
// hybrid strategy with delta ingest and delta scoring (WithExact turns both
// off).
func defaultSessionConfig() sessionConfig {
	return sessionConfig{strategy: StrategyHybrid, seed: 1, ctx: context.Background(),
		deltaEnabled: true, deltaScoring: true}
}

func (c *sessionConfig) apply(opts []Option) {
	for _, opt := range opts {
		opt(c)
	}
}

// Option configures a Session or one of the one-shot facade functions.
type Option func(*sessionConfig)

// WithStrategy selects the guidance strategy (default: hybrid).
func WithStrategy(s StrategyName) Option { return func(c *sessionConfig) { c.strategy = s } }

// WithBudget caps the number of expert validations (default: one per object).
func WithBudget(n int) Option { return func(c *sessionConfig) { c.budget = n } }

// WithCandidateLimit bounds the number of candidate objects scored per
// iteration; smaller values trade guidance quality for speed (default 0 =
// score every candidate).
func WithCandidateLimit(n int) Option { return func(c *sessionConfig) { c.candidateLimit = n } }

// WithParallelism caps the number of goroutines the parallel stages use: the
// sharded E-/M-steps of the i-EM aggregation (the exact scorer's warm EM runs
// included) and the sharded faulty-worker assessment. A selection scores its
// candidates one after another. The default (0) uses GOMAXPROCS; 1 forces
// the serial paths. Aggregation and detection results are bitwise identical
// for every setting, so this is purely a resource knob. It applies to
// sessions and to the one-shot facade functions alike.
func WithParallelism(n int) Option { return func(c *sessionConfig) { c.parallelism = n } }

// WithContext attaches a cancellation context to a one-shot facade call
// (Aggregate, MajorityVote, AssessWorkers, CheckValidations) or to
// NewSession, whose initial cold aggregation is its dominant cost: the
// sharded aggregation and detection work observes the context and the call
// returns its error once cancelled. Everything else a session does takes a
// context per call instead — see NextObjectContext, SubmitValidationContext,
// SubmitValidations, AddAnswers.
func WithContext(ctx context.Context) Option {
	return func(c *sessionConfig) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

// WithConfirmationCheck enables the periodic check for erroneous expert input
// every period validations.
func WithConfirmationCheck(period int) Option {
	return func(c *sessionConfig) { c.confirmationPeriod = period }
}

// WithDetectionThresholds overrides the spammer score threshold τs and the
// sloppy-worker error-rate threshold τp. It applies to sessions and to
// AssessWorkers.
func WithDetectionThresholds(spammer, sloppy float64) Option {
	return func(c *sessionConfig) { c.spammerThreshold = spammer; c.sloppyThreshold = sloppy }
}

// WithUncertaintyGoal stops the session once the total uncertainty of the
// probabilistic answer set drops below the threshold.
func WithUncertaintyGoal(threshold float64) Option {
	return func(c *sessionConfig) { c.uncertaintyGoal = threshold }
}

// WithSeed fixes the seed of the stochastic components (hybrid roulette
// wheel, random strategy) so sessions are reproducible.
func WithSeed(seed int64) Option { return func(c *sessionConfig) { c.seed = seed } }

// WithExact opts a session out of both delta paths: every aggregation runs
// the full warm-started EM to convergence, and uncertainty-driven guidance
// scores each (candidate, label) hypothesis with a full warm EM — the
// paper's literal i-EM and Eq. 8, the reference the delta paths are measured
// against. The worker-driven scorer is exact and the same in both modes. A
// serving tier never merges an exact session's concurrent ingests, so such a
// session stays bit-for-bit equal to a serial replay of its requests. Exact
// sessions are slower: a validation re-converges the whole corpus (about 20
// full sweeps on the serving workloads), and a guided selection runs a warm
// EM per hypothesis of the uncertainty-driven strategy.
//
// The option is captured in snapshots: a resumed session keeps its mode.
// WithDeltaIngest or WithDeltaScoring after WithExact turns the named path
// back on.
func WithExact() Option {
	return func(c *sessionConfig) { c.deltaEnabled = false; c.deltaScoring = false }
}

// WithDeltaIngest selects the delta-incremental aggregation path, which is
// the default (see WithExact for the alternative); the option only matters
// after WithExact. The session tracks which objects and workers each
// mutation touches (AddAnswers batches, validations, quarantine changes) and
// re-aggregates by refining only that dirty frontier before a full-sweep
// settle phase re-establishes the global fixed point. Ingesting a small
// batch then costs work proportional to the batch plus a couple of full
// sweeps, instead of a full warm EM re-convergence — the difference between
// ~1 k and ~10 k ingested answers/sec on the 50 000-object serving workload.
//
// Results remain fixed points of the full EM within the settle tolerance,
// so delta sessions agree with exact sessions up to a documented tolerance
// (see the parity suite), but not bit-for-bit. The option is captured in
// snapshots: a resumed session keeps its delta configuration.
func WithDeltaIngest() Option { return func(c *sessionConfig) { c.deltaEnabled = true } }

// WithDeltaScoring selects delta-accelerated guidance scoring, which is the
// default (see WithExact for the alternative); the option only matters after
// WithExact. NextObject and NextObjects estimate each candidate's utility
// with a frontier-restricted hypothetical EM pass — a hypothetical
// validation of object o dirties only o plus its answering workers — instead
// of re-running a full warm EM per (candidate, label) hypothesis. On the
// 50 000-object serving workload this turns one guided selection from
// hundreds of warm-EM runs into milliseconds (see BENCHMARKS.md,
// BenchmarkNextObject).
//
// The option affects the uncertainty-driven scorer (alone or as a hybrid
// branch), which then approximates the full-EM reference: selections agree
// with it up to a documented information-gain tolerance (see the parity
// suite), but not bit-for-bit. The worker-driven strategy has one exact
// scorer, the same with and without the option. The option is captured in
// snapshots: a resumed session keeps its scoring mode.
func WithDeltaScoring() Option { return func(c *sessionConfig) { c.deltaScoring = true } }

// WithCostBudget caps the session's expert spending under the §6.8 cost
// model: every accepted validation is charged against the tracker (θ crowd-
// answer units per validation, batches as a whole), and once neither the
// budget nor the optional completion-time deadline admits another validation,
// submissions and selections (NextObject, NextObjects) fail with
// ErrBudgetExhausted and Done reports true, so RunWithOracle stops there. This is the monetary counterpart
// of WithBudget's plain validation count; the two compose — whichever limit
// is hit first stops the spending. A failed submission refunds its charge, so
// errors are free.
//
// The tracker (its parameters and the validations already spent) is captured
// in snapshots: a resumed session continues charging exactly where the
// original stopped. The global marketplace read path of a serving tier uses
// the tracker to normalize guidance scores to gain per unit cost.
func WithCostBudget(t CostTracker) Option {
	return func(c *sessionConfig) { c.costBudget = &t }
}

// WithoutSelectionCache disables the maintained-view serving caches: the
// in-place refill of the scoring index across aggregations and the
// per-strategy ranking memoization that serves repeated NextObject/NextObjects
// calls on an unchanged state without re-scoring. With the caches off, every
// aggregation drops the scoring index, and every selection allocates and
// builds a new one and rescans its candidates — the pre-maintained-view
// behavior.
//
// This is a pure performance knob for benchmarking and differential testing:
// selections are bit-identical with and without the caches (the differential
// suite pins this), and the option is not part of the snapshot state — a
// resumed session uses whatever the resuming process passes. The serving
// tier resumes sessions with no options, so a session created there with it
// has its caches back after its first park (see server.Manager.Create).
func WithoutSelectionCache() Option { return func(c *sessionConfig) { c.noSelectionCache = true } }

// StepInfo summarizes the consequences of one submitted validation.
type StepInfo struct {
	// Object and Label echo the submitted validation.
	Object int
	Label  Label
	// ErrorRate is 1 − U(object, label) before the validation: how much the
	// expert's answer surprised the aggregation.
	ErrorRate float64
	// Uncertainty is the total entropy of the probabilistic answer set after
	// integrating the validation.
	Uncertainty float64
	// FaultyWorkers is the number of workers currently flagged as faulty.
	FaultyWorkers int
	// QuarantinedWorkers lists workers whose answers are currently masked.
	QuarantinedWorkers []int
	// SuspectValidations lists previously validated objects whose expert
	// label now disagrees with the aggregated crowd evidence; consider
	// re-validating them with Revise.
	SuspectValidations []int
}

// Session is an interactive guided-validation session: it tells the caller
// which object the expert should look at next and integrates the expert's
// answers pay-as-you-go. A session is long-lived and updatable — new crowd
// answers stream in through AddAnswers, expert input arrives one validation
// at a time (SubmitValidation) or in batches (SubmitValidations) — and
// serializable: Snapshot captures the full state and ResumeSession restores
// it bit-for-bit, in the same process or another one.
type Session struct {
	engine *core.Engine
	cfg    sessionConfig
	// src seeds every stochastic component; its single uint64 of state makes
	// snapshots bit-for-bit resumable.
	src *rng.SplitMix64
}

// NewSession prepares a guided validation session over a copy of the given
// answers: the session never reads or writes answers again, so the caller
// may keep using it, and several sessions may start from one set.
func NewSession(answers *AnswerSet, opts ...Option) (*Session, error) {
	if answers == nil {
		return nil, fmt.Errorf("crowdval: %w", cverr.ErrNilAnswerSet)
	}
	cfg := defaultSessionConfig()
	cfg.apply(opts)
	return newSession(answers, cfg, nil)
}

// newSession wires a session from an explicit configuration. When st is
// non-nil the engine resumes from that decoded snapshot instead of running
// the initial aggregation over answers.
func newSession(answers *AnswerSet, cfg sessionConfig, st *snapshot.State) (*Session, error) {
	src := rng.New(cfg.seed)
	rnd := rand.New(src)
	// Every stochastic strategy draws from rnd, the session's single
	// snapshot-able source.
	strategy, err := guidance.New(string(cfg.strategy), cfg.candidateLimit, rnd)
	if err != nil {
		return nil, err
	}
	detector := &spamdetect.Detector{
		SpammerThreshold: cfg.spammerThreshold,
		SloppyThreshold:  cfg.sloppyThreshold,
		Parallelism:      cfg.parallelism,
	}
	// The engine builds its IncrementalEM with Parallelism = MaxParallelism
	// and scores candidates serially.
	engineCfg := core.Config{
		Strategy:              strategy,
		Detector:              detector,
		Budget:                cfg.budget,
		MaxParallelism:        cfg.parallelism,
		HandleFaultyWorkers:   true,
		Rand:                  rnd,
		Delta:                 aggregation.DeltaConfig{Enabled: cfg.deltaEnabled},
		DeltaScoring:          cfg.deltaScoring,
		DisableSelectionCache: cfg.noSelectionCache,
	}
	if cfg.confirmationPeriod > 0 {
		engineCfg.Confirmation = &guidance.ConfirmationCheck{Period: cfg.confirmationPeriod}
	}
	if cfg.uncertaintyGoal > 0 {
		engineCfg.Goal = core.UncertaintyBelow(cfg.uncertaintyGoal)
	}
	var engine *core.Engine
	if st != nil {
		engine, err = core.RestoreEngine(st, engineCfg)
	} else {
		// The initial cold aggregation is the most expensive step of session
		// creation; WithContext makes it cancellable.
		engine, err = core.NewEngineContext(cfg.ctx, answers, engineCfg)
	}
	if err != nil {
		return nil, err
	}
	// The creation context has served its purpose; do not retain it for the
	// session's lifetime — a long-lived session must not pin request-scoped
	// values or deadline timers. Every later operation takes its own context.
	cfg.ctx = context.Background()
	if cfg.costBudget != nil {
		// The engine charges the monetary budget on its one integration path
		// and owns it from here; the session reads it back for snapshots.
		tracker := *cfg.costBudget
		engine.SetCostBudget(&tracker)
	}
	return &Session{engine: engine, cfg: cfg, src: src}, nil
}

// orBackground defends the public context-taking entry points against nil:
// the package treats a nil context as "never cancel", matching WithContext's
// nil tolerance, instead of panicking deep inside the shard dispatch.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// NextObject returns the object the expert should validate next.
func (s *Session) NextObject() (int, error) {
	return s.NextObjectContext(context.Background())
}

// NextObjectContext is NextObject with cancellation: the candidate scoring —
// the expensive part of a validation step on large answer sets — observes the
// context and the call returns its error once cancelled. It fails with
// ErrSessionDone when the session can make no further progress and with
// ErrBudgetExhausted when the expert budget is spent.
func (s *Session) NextObjectContext(ctx context.Context) (int, error) {
	return s.engine.SelectNextContext(orBackground(ctx))
}

// ScoredObject is one ranked candidate of a batched NextObjects selection:
// the object and the guidance strategy's score for it (information gain for
// uncertainty-driven selection, expected detected faulty workers for
// worker-driven, entropy for the baseline, 0 for random).
type ScoredObject = guidance.ScoredObject

// NextObjects returns the top k objects the expert should validate next, in
// one scoring pass (see NextObjectsContext).
func (s *Session) NextObjects(k int) ([]ScoredObject, error) {
	return s.NextObjectsContext(context.Background(), k)
}

// NextObjectsContext is the batched form of NextObjectContext: the strategy
// scores the candidates once and returns the k best (fewer when fewer remain
// unvalidated), ranked by score descending with ties broken toward the
// smaller object index — the API for expert UIs that present a page of
// suggestions per round trip. NextObjectsContext(ctx, 1) selects exactly the
// object NextObjectContext would and consumes the same pseudo-random state
// (one hybrid roulette draw per call), so mixing single and batched
// selections keeps snapshots and resumed sessions bit-for-bit aligned.
//
// Selection does not mutate the validation state: two consecutive calls
// return the same ranking, and the budget bounds validations, not
// suggestions. NextObject, NextObjects and Snapshot are safe to call
// concurrently with each other (a serving tier serves them under its read
// lock); they must not run concurrently with mutating calls.
func (s *Session) NextObjectsContext(ctx context.Context, k int) ([]ScoredObject, error) {
	return s.engine.SelectNextKContext(orBackground(ctx), k)
}

// SubmitValidation integrates the expert's label for an object and returns a
// summary of its consequences.
func (s *Session) SubmitValidation(object int, label Label) (StepInfo, error) {
	return s.SubmitValidationContext(context.Background(), object, label)
}

// SubmitValidationContext is SubmitValidation with cancellation. A cancelled
// context rolls the submission back completely — the session state is exactly
// what it was before the call and the validation can be resubmitted.
func (s *Session) SubmitValidationContext(ctx context.Context, object int, label Label) (StepInfo, error) {
	record, err := s.engine.IntegrateContext(orBackground(ctx), object, label)
	if err != nil {
		return StepInfo{}, err
	}
	return s.stepInfo(record), nil
}

// SubmitValidations integrates a whole batch of expert validations,
// re-running the faulty-worker detection and the i-EM aggregation once for
// the batch instead of once per validation — the integration path for batch
// expert UIs. It returns one StepInfo per input, in input order; error rates
// are measured against the state before the batch, while uncertainty and
// worker counts reflect the state after it. The batch fails (and rolls back)
// as a whole: duplicate or already-validated objects, labels out of range, a
// batch larger than the remaining budget, or a cancelled context.
func (s *Session) SubmitValidations(ctx context.Context, inputs []ValidationInput) ([]StepInfo, error) {
	records, err := s.engine.IntegrateBatch(orBackground(ctx), inputs)
	if err != nil {
		return nil, err
	}
	infos := make([]StepInfo, len(records))
	for i, record := range records {
		infos[i] = s.stepInfo(record)
	}
	return infos, nil
}

// SetCostBudget installs or replaces the session's monetary budget at
// runtime, keeping the validations already spent: granting a tenant more
// budget mid-campaign does not forgive past spending. Serving tiers log the
// update to the WAL before applying it, like any other mutation.
func (s *Session) SetCostBudget(t CostTracker) {
	t.Spent = 0
	if cur := s.engine.CostBudget(); cur != nil {
		t.Spent = cur.Spent
	}
	s.engine.SetCostBudget(&t)
}

// CostBudget returns a copy of the session's monetary budget state and
// whether one is configured.
func (s *Session) CostBudget() (CostTracker, bool) {
	t := s.engine.CostBudget()
	if t == nil {
		return CostTracker{}, false
	}
	return *t, true
}

// AddAnswers folds newly arrived crowd answers into the running session via
// the i-EM warm start, without rebuilding anything — the ingestion path for
// live crowds that keep answering while the expert validates. Answers may
// reference objects and workers the session has never seen: the sparse model
// grows on demand and the new rows bootstrap from the new evidence. The label
// alphabet is fixed at session creation.
//
// A cancelled context aborts the re-aggregation with the context's error; the
// answers remain ingested in a consistent warm state and are folded in by the
// next successful AddAnswers or SubmitValidation call.
func (s *Session) AddAnswers(ctx context.Context, answers []Answer) error {
	return s.engine.AddAnswers(orBackground(ctx), answers)
}

func (s *Session) stepInfo(record core.IterationRecord) StepInfo {
	info := StepInfo{
		Object:             record.Object,
		Label:              record.Label,
		ErrorRate:          record.ErrorRate,
		Uncertainty:        record.Uncertainty,
		FaultyWorkers:      record.FaultyWorkers,
		QuarantinedWorkers: s.engine.QuarantinedWorkers(),
	}
	for _, suspect := range record.ConfirmationSuspects {
		info.SuspectValidations = append(info.SuspectValidations, suspect.Object)
	}
	return info
}

// Revise replaces an earlier validation (e.g. after it was reported in
// StepInfo.SuspectValidations). The revision counts as additional expert
// effort.
func (s *Session) Revise(object int, label Label) error {
	return s.ReviseContext(context.Background(), object, label)
}

// ReviseContext is Revise with cancellation.
func (s *Session) ReviseContext(ctx context.Context, object int, label Label) error {
	return s.engine.ReviseValidationContext(orBackground(ctx), object, label)
}

// Done reports whether the session should stop: goal reached, the
// validation budget (WithBudget) or the monetary budget (WithCostBudget)
// exhausted, or all objects validated.
func (s *Session) Done() bool { return s.engine.Done() }

// Result returns the current best label for every object: expert labels where
// available, the most probable label elsewhere.
func (s *Session) Result() DeterministicAssignment { return s.engine.Assignment() }

// ProbabilisticResult exposes the full probabilistic answer set.
func (s *Session) ProbabilisticResult() *ProbabilisticAnswerSet { return s.engine.ProbSet() }

// Uncertainty returns the total entropy of the current probabilistic answer
// set; it decreases as validations accumulate.
func (s *Session) Uncertainty() float64 { return s.engine.Uncertainty() }

// EffortSpent returns the number of expert interactions so far.
func (s *Session) EffortSpent() int { return s.engine.EffortSpent() }

// EffortRatio returns the effort spent relative to the number of objects.
func (s *Session) EffortRatio() float64 { return s.engine.EffortRatio() }

// Validation returns the expert validations collected so far.
func (s *Session) Validation() *Validation { return s.engine.Validation() }

// QuarantinedWorkers lists the workers whose answers are currently excluded
// from the aggregation because they are suspected to be faulty.
func (s *Session) QuarantinedWorkers() []int { return s.engine.QuarantinedWorkers() }

// NumObjects returns the number of objects the session currently covers; it
// grows when AddAnswers ingests answers for previously unseen objects.
func (s *Session) NumObjects() int { return s.engine.Answers().NumObjects() }

// NumWorkers returns the number of workers the session currently covers; it
// grows when AddAnswers ingests answers from previously unseen workers.
func (s *Session) NumWorkers() int { return s.engine.Answers().NumWorkers() }

// NumLabels returns the size of the label alphabet, fixed at creation.
func (s *Session) NumLabels() int { return s.engine.Answers().NumLabels() }

// AnswerCount returns the total number of crowd answers the session holds,
// including answers ingested through AddAnswers.
func (s *Session) AnswerCount() int { return s.engine.AnswerCount() }

// SessionCounters are a session's cumulative statistics: EM and delta
// iterations, delta outcomes, scoring-index builds and patches, ranking
// candidates scored and pruned (see the field docs). Serving tiers sum them
// across sessions into their metrics. They are not snapshot state: a resumed
// session counts from zero.
type SessionCounters = core.Counters

// Counters returns the session's cumulative statistics. Safe to call
// concurrently with selections.
func (s *Session) Counters() SessionCounters { return s.engine.Counters() }

// DeltaIngestEnabled reports whether the session runs the delta-incremental
// aggregation path (the default; off under WithExact). Serving tiers use it
// to decide whether concurrent ingest requests may be merged: delta sessions
// trade bit-for-bit replay equivalence for throughput, exact sessions keep
// it.
func (s *Session) DeltaIngestEnabled() bool { return s.cfg.deltaEnabled }

// MemoryEstimate approximates the resident memory of the session state in
// bytes: the sparse answer matrix (every answer once per adjacency list,
// quarantined workers' stashed answers included), the probabilistic state
// (assignment rows and per-worker confusion matrices), the validation
// function and the per-iteration history. It leaves out the guidance scoring
// index, which a session builds on its first selection. Serving tiers use it
// to decide when to park cold sessions under a memory budget; it is an
// estimate for accounting, not an exact heap measurement.
func (s *Session) MemoryEstimate() int64 {
	n := int64(s.NumObjects())
	k := int64(s.NumWorkers())
	m := int64(s.NumLabels())
	count := int64(s.AnswerCount())
	const answerEntry = 16 // one adjacency entry: two ints
	var bytes int64
	// Answers appear in two adjacency lists (by object and by worker).
	// Stashed answers sit in one list only; they are few and counted alike.
	bytes += count * answerEntry * 2
	// Assignment matrix (n×m float64) is held in the probabilistic state and
	// mirrored by the instantiated deterministic assignment (n labels).
	bytes += n*m*8 + n*8
	// Per-worker m×m confusion matrices.
	bytes += k * m * m * 8
	// Validation function: one label per object.
	bytes += n * 8
	// History records: the fixed fields dominate (slices are usually empty).
	bytes += int64(len(s.engine.History())) * 128
	return bytes
}

// RunWithOracle drives the session to completion using a ground-truth oracle
// as the expert — useful for simulations and tests. It returns the number of
// validations performed.
func (s *Session) RunWithOracle(truth DeterministicAssignment) (int, error) {
	return s.RunWithOracleContext(context.Background(), truth)
}

// RunWithOracleContext is RunWithOracle with cancellation: the run stops with
// the context's error between iterations, and the iteration in flight rolls
// back cleanly, so a cancelled run leaves the session resumable.
func (s *Session) RunWithOracleContext(ctx context.Context, truth DeterministicAssignment) (int, error) {
	expert := core.ExpertFunc(func(object int) (Label, error) {
		if object < 0 || object >= len(truth) || truth[object] == NoLabel {
			return NoLabel, fmt.Errorf("%w: object %d", cverr.ErrNoGroundTruth, object)
		}
		return truth[object], nil
	})
	summary, err := s.engine.RunContext(orBackground(ctx), expert, nil)
	if err != nil {
		return 0, err
	}
	return summary.EffortSpent, nil
}
