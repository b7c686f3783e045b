package aggregation

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"crowdval/internal/model"
	"crowdval/internal/par"
)

// InitStrategy selects how a cold-started EM run initializes the assignment
// matrix and the worker confusion matrices.
type InitStrategy int

const (
	// InitMajorityVote initializes the assignment matrix with per-object
	// label frequencies. This is the standard Dawid–Skene initialization.
	InitMajorityVote InitStrategy = iota
	// InitRandom initializes every object with a random distribution,
	// matching the "random probability estimation" the paper attributes to
	// traditional, non-incremental EM.
	InitRandom
)

// EMConfig bundles the numerical parameters of the EM-based aggregators.
type EMConfig struct {
	// MaxIterations caps the number of E/M iterations. Values below 1 use
	// DefaultMaxIterations.
	MaxIterations int
	// Tolerance is the convergence threshold on the maximal entry-wise
	// change of the assignment matrix between iterations. Values <= 0 use
	// DefaultTolerance.
	Tolerance float64
	// Smoothing is the additive smoothing applied to confusion-matrix rows
	// in the M-step, keeping estimates away from hard zeros. Values <= 0
	// use DefaultSmoothing.
	Smoothing float64
	// Parallelism is the number of shards the E-step (over objects) and the
	// M-step (over workers) are split into. Values < 1 use GOMAXPROCS; 1
	// forces the serial path. Results are bitwise identical for every
	// setting: each shard writes disjoint rows/workers and the convergence
	// reduction is an order-independent maximum.
	Parallelism int
}

// Default EM parameters.
const (
	DefaultMaxIterations = 100
	DefaultTolerance     = 1e-4
	DefaultSmoothing     = 1e-2
)

func (c EMConfig) maxIterations() int {
	if c.MaxIterations < 1 {
		return DefaultMaxIterations
	}
	return c.MaxIterations
}

func (c EMConfig) tolerance() float64 {
	if c.Tolerance <= 0 {
		return DefaultTolerance
	}
	return c.Tolerance
}

func (c EMConfig) smoothing() float64 {
	if c.Smoothing <= 0 {
		return DefaultSmoothing
	}
	return c.Smoothing
}

// BatchEM is the traditional Dawid–Skene expectation-maximization aggregator
// (Ipeirotis et al.). It is cold-started on every call (no warm start from
// prev) and therefore models the non-incremental EM the paper compares i-EM
// against. Expert validations are still honoured as ground truth (Eq. 4)
// unless IgnoreValidation is set.
type BatchEM struct {
	Config EMConfig
	// Init selects the cold-start initialization.
	Init InitStrategy
	// Rand is used by InitRandom. A nil Rand falls back to a fixed-seed
	// generator so runs stay reproducible.
	Rand *rand.Rand
	// IgnoreValidation drops the expert input entirely, producing the
	// purely automatic aggregation ("WO" style usage, or the Combined
	// strategy after the expert answers were merged into the matrix).
	IgnoreValidation bool
}

// Aggregate is AggregateContext without cancellation.
func (b *BatchEM) Aggregate(answers *model.AnswerSet, validation *model.Validation, prev *model.ProbabilisticAnswerSet) (*Result, error) {
	return b.AggregateContext(context.Background(), answers, validation, prev)
}

// AggregateContext runs a cold-started EM to convergence; prev is ignored.
// It returns ctx.Err() as soon as the context is done, without having
// mutated answers or validation.
func (b *BatchEM) AggregateContext(ctx context.Context, answers *model.AnswerSet, validation *model.Validation, _ *model.ProbabilisticAnswerSet) (*Result, error) {
	validation, err := checkInputs(answers, validation)
	if err != nil {
		return nil, err
	}
	if b.IgnoreValidation {
		validation = model.NewValidation(answers.NumObjects())
	}
	assignment, err := b.initialAssignment(ctx, answers, validation)
	if err != nil {
		return nil, err
	}
	confusions, err := initialConfusions(ctx, answers, assignment, b.Config.smoothing(), b.Config.Parallelism)
	if err != nil {
		return nil, err
	}
	return runEM(ctx, answers, validation, assignment, confusions, b.Config)
}

func (b *BatchEM) initialAssignment(ctx context.Context, answers *model.AnswerSet, validation *model.Validation) (*model.AssignmentMatrix, error) {
	n, m := answers.NumObjects(), answers.NumLabels()
	var u *model.AssignmentMatrix
	switch b.Init {
	case InitMajorityVote:
		var err error
		u, err = majorityVoteAssignment(ctx, answers, validation, b.Config.Parallelism)
		if err != nil {
			return nil, err
		}
	case InitRandom:
		u = model.NewAssignmentMatrix(n, m)
		rng := b.Rand
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		for o := 0; o < n; o++ {
			row := make([]float64, m)
			for l := range row {
				row[l] = rng.Float64() + 1e-6
			}
			u.SetRow(o, row)
			u.NormalizeRow(o)
		}
	default:
		return nil, fmt.Errorf("aggregation: unknown init strategy %d", b.Init)
	}
	pinValidated(u, validation)
	return u, nil
}

// IncrementalEM is the paper's i-EM algorithm (§4.1): expert validations are
// integrated as ground truth and each call warm-starts from the probabilistic
// answer set of the previous validation iteration, following the view
// maintenance principle. When no previous state exists it falls back to a
// majority-vote initialization.
type IncrementalEM struct {
	Config EMConfig
	// Delta configures the delta-incremental path (AggregateDeltaContext),
	// which recomputes posteriors only for a dirty object frontier and
	// confusion rows only for touched workers before a full-sweep settle
	// phase re-establishes the global fixed point. The plain
	// Aggregate/AggregateContext entry points ignore it.
	Delta DeltaConfig
}

// Aggregate is AggregateContext without cancellation.
func (ie *IncrementalEM) Aggregate(answers *model.AnswerSet, validation *model.Validation, prev *model.ProbabilisticAnswerSet) (*Result, error) {
	return ie.AggregateContext(context.Background(), answers, validation, prev)
}

// AggregateContext runs i-EM warm-started from prev (cold when prev is nil
// or of another shape). It returns ctx.Err() as soon as the context is done,
// without having mutated answers, validation or prev.
func (ie *IncrementalEM) AggregateContext(ctx context.Context, answers *model.AnswerSet, validation *model.Validation, prev *model.ProbabilisticAnswerSet) (*Result, error) {
	validation, err := checkInputs(answers, validation)
	if err != nil {
		return nil, err
	}

	var assignment *model.AssignmentMatrix
	var confusions []*model.ConfusionMatrix
	if prev != nil && prev.Assignment != nil && len(prev.Confusions) == answers.NumWorkers() &&
		prev.Assignment.NumObjects() == answers.NumObjects() && prev.Assignment.NumLabels() == answers.NumLabels() {
		// Warm start: C⁰_s = C^q_{s-1}, U⁰_s = U^q_{s-1} (with the new
		// validations pinned).
		assignment = prev.Assignment.Clone()
		confusions = make([]*model.ConfusionMatrix, len(prev.Confusions))
		for w, c := range prev.Confusions {
			confusions[w] = c.Clone()
		}
	} else {
		assignment, err = majorityVoteAssignment(ctx, answers, validation, ie.Config.Parallelism)
		if err != nil {
			return nil, err
		}
		confusions, err = initialConfusions(ctx, answers, assignment, ie.Config.smoothing(), ie.Config.Parallelism)
		if err != nil {
			return nil, err
		}
	}
	pinValidated(assignment, validation)
	return runEM(ctx, answers, validation, assignment, confusions, ie.Config)
}

// pinValidated forces the rows of validated objects to the expert's label.
func pinValidated(u *model.AssignmentMatrix, validation *model.Validation) {
	for o := 0; o < u.NumObjects(); o++ {
		if l := validation.Get(o); l != model.NoLabel {
			u.SetCertain(o, l)
		}
	}
}

// initialConfusions estimates per-worker confusion matrices from an
// assignment matrix (soft counts), used to bootstrap the EM iterations.
// Workers are independent, so the estimation is sharded like the M-step.
func initialConfusions(ctx context.Context, answers *model.AnswerSet, u *model.AssignmentMatrix, smoothing float64, parallelism int) ([]*model.ConfusionMatrix, error) {
	confusions := make([]*model.ConfusionMatrix, answers.NumWorkers())
	if err := mStepInto(ctx, answers, u, smoothing, parallelism, confusions); err != nil {
		return nil, err
	}
	return confusions, nil
}

// runEM alternates E- and M-steps (Eq. 1–5) until the assignment matrix stops
// changing or the iteration cap is reached. Both steps read the answer set
// through its sparse adjacency views, so one iteration costs
// O(#answers · m), not O(n·k·m), and both are sharded across
// cfg.Parallelism goroutines with bitwise-deterministic results.
//
// The context is threaded through every shard: a long aggregation is
// abandoned as soon as ctx is cancelled, returning ctx.Err(). All EM state
// lives in buffers owned by this call (the caller handed in clones), so a
// cancelled run leaves no partially updated state behind.
func runEM(ctx context.Context, answers *model.AnswerSet, validation *model.Validation, assignment *model.AssignmentMatrix,
	confusions []*model.ConfusionMatrix, cfg EMConfig) (*Result, error) {

	maxIter := cfg.maxIterations()
	tol := cfg.tolerance()
	smoothing := cfg.smoothing()
	parallelism := cfg.Parallelism

	n, m := answers.NumObjects(), answers.NumLabels()
	iterations := 0
	converged := false
	// Ping-pong between two assignment buffers and reuse the log-confusion
	// table and the confusion matrices across iterations: every row/entry is
	// fully rewritten each iteration, so reuse changes no values, only the
	// per-iteration allocation volume on the pay-as-you-go hot path.
	current, next := assignment, model.NewAssignmentMatrix(n, m)
	logConf := make([]float64, len(confusions)*m*m)
	for iter := 0; iter < maxIter; iter++ {
		iterations++
		diff, err := eStep(ctx, answers, validation, current, next, confusions, logConf, parallelism)
		if err != nil {
			return nil, err
		}
		if err := mStepInto(ctx, answers, next, smoothing, parallelism, confusions); err != nil {
			return nil, err
		}
		current, next = next, current
		if diff < tol {
			converged = true
			break
		}
	}

	probSet := &model.ProbabilisticAnswerSet{
		Answers:    answers,
		Validation: validation.Clone(),
		Assignment: current,
		Confusions: confusions,
	}
	return &Result{ProbSet: probSet, Iterations: iterations, Converged: converged}, nil
}

// eStep computes the new assignment matrix (written into next, whose every
// row it overwrites) from the current confusion matrices and priors (Eq. 1
// and Eq. 4) and returns the maximal entry-wise change against current (the
// convergence criterion). Probabilities are accumulated in log space to
// avoid underflow with many workers. Objects are independent given the
// priors, so the step shards the object range; each shard writes only its
// own rows and reports a local maximum, and the shard maxima are folded with
// max — an exact, order-independent reduction, so any parallelism yields
// identical bits.
func eStep(ctx context.Context, answers *model.AnswerSet, validation *model.Validation,
	current, next *model.AssignmentMatrix, confusions []*model.ConfusionMatrix, logConf []float64, parallelism int) (float64, error) {

	n, m := current.NumObjects(), current.NumLabels()
	priors := current.Priors()
	logPriors := make([]float64, m)
	for l, p := range priors {
		if p <= 0 {
			p = 1e-12
		}
		logPriors[l] = math.Log(p)
	}

	// Hoist the logarithms out of the per-answer loop: one k·m² table per
	// iteration instead of one math.Log per (answer, label). The table holds
	// exactly the values the inner loop would compute, so the accumulation
	// below is bitwise unchanged.
	if err := par.ForCtx(ctx, len(confusions), parallelism, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			fillLogConf(logConf, confusions, w, m)
		}
	}); err != nil {
		return 0, err
	}

	shards := par.Shards(parallelism, n)
	shardDiff := make([]float64, shards)
	err := par.ForNCtx(ctx, n, shards, func(shard, lo, hi int) {
		localDiff := 0.0
		for o := lo; o < hi; o++ {
			row := next.RowSlice(o)
			posteriorRowInto(row, answers, validation, o, m, logPriors, logConf)
			for l := 0; l < m; l++ {
				if d := math.Abs(row[l] - current.Prob(o, model.Label(l))); d > localDiff {
					localDiff = d
				}
			}
		}
		shardDiff[shard] = localDiff
	})
	if err != nil {
		return 0, err
	}
	diff := 0.0
	for _, d := range shardDiff {
		if d > diff {
			diff = d
		}
	}
	return diff, nil
}

// fillLogConf writes the log-confusion block of one worker into logConf
// (layout w·m² + l·m + l2), flooring hard zeros at 1e-12. It is shared by
// the full E-step and the delta phase (runDeltaEM), so the two compute
// bit-identical table entries by construction.
func fillLogConf(logConf []float64, confusions []*model.ConfusionMatrix, w, m int) {
	mm := m * m
	fillLogConfBlock(logConf[w*mm:(w+1)*mm], confusions[w], m)
}

// fillLogConfBlock writes one worker's m² log-confusion block (layout
// l·m + l2) into dst, flooring hard zeros at 1e-12. Shared by the full
// E-step's table build and the hypothetical scorer's staged blocks
// (HypoScratch), so both compute bit-identical entries.
func fillLogConfBlock(dst []float64, f *model.ConfusionMatrix, m int) {
	for l := 0; l < m; l++ {
		for l2 := 0; l2 < m; l2++ {
			p := f.At(model.Label(l), model.Label(l2))
			if p <= 0 {
				p = 1e-12
			}
			dst[l*m+l2] = math.Log(p)
		}
	}
}

// posteriorRowInto computes one object's E-step posterior into row: the
// point mass of the expert's label for validated objects (Eq. 4), otherwise
// the log-space accumulation of priors and per-answer confusion columns
// with log-sum-exp normalization (Eq. 1). Shared by eStep and the delta
// phase (runDeltaEM), so a frontier row update is the full E-step's row
// update by construction.
func posteriorRowInto(row []float64, answers *model.AnswerSet, validation *model.Validation, o, m int, logPriors, logConf []float64) {
	if l := validation.Get(o); l != model.NoLabel {
		for i := range row {
			row[i] = 0
		}
		row[l] = 1
		return
	}
	mm := m * m
	for l := 0; l < m; l++ {
		row[l] = logPriors[l]
	}
	for _, wa := range answers.ObjectView(o) {
		lf := logConf[wa.Worker*mm+int(wa.Label) : wa.Worker*mm+mm]
		for l := 0; l < m; l++ {
			row[l] += lf[l*m]
		}
	}
	maxLog := row[0]
	for l := 1; l < m; l++ {
		if row[l] > maxLog {
			maxLog = row[l]
		}
	}
	sum := 0.0
	for l := 0; l < m; l++ {
		// The maximum (and any tie with it) would take exp(0), which is
		// exactly 1; skipping the call leaves every bit unchanged.
		if d := row[l] - maxLog; d != 0 {
			row[l] = math.Exp(d)
		} else {
			row[l] = 1
		}
		sum += row[l]
	}
	for l := 0; l < m; l++ {
		row[l] /= sum
	}
}

// mStepInto re-estimates the worker confusion matrices from the assignment
// probabilities (Eq. 5) with additive smoothing, overwriting confusions in
// place (nil slots are allocated, existing matrices are reset and reused).
// Each worker's matrix depends only on that worker's adjacency list, so the
// worker range is sharded; every shard writes disjoint slots of the result
// slice, keeping parallel runs bitwise identical to serial ones.
func mStepInto(ctx context.Context, answers *model.AnswerSet, u *model.AssignmentMatrix, smoothing float64, parallelism int, confusions []*model.ConfusionMatrix) error {
	m := u.NumLabels()
	return par.ForCtx(ctx, len(confusions), parallelism, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			c := confusions[w]
			if c == nil {
				c = model.NewConfusionMatrix(m)
				confusions[w] = c
			}
			reestimateConfusion(c, answers, u, w, smoothing)
		}
	})
}

// reestimateConfusion recomputes one worker's confusion matrix in place from
// the assignment probabilities (Eq. 5) with additive smoothing. Shared by
// the full M-step and the delta phase (runDeltaEM), so a frontier confusion
// update is the full M-step's update by construction.
func reestimateConfusion(c *model.ConfusionMatrix, answers *model.AnswerSet, u *model.AssignmentMatrix, w int, smoothing float64) {
	m := u.NumLabels()
	c.Reset()
	for _, oa := range answers.WorkerView(w) {
		for l := 0; l < m; l++ {
			c.Add(model.Label(l), oa.Label, u.Prob(oa.Object, model.Label(l)))
		}
	}
	c.Smooth(smoothing)
}
