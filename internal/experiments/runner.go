package experiments

import (
	"context"
	"math/rand"

	"crowdval/internal/aggregation"
	"crowdval/internal/core"
	"crowdval/internal/guidance"
	"crowdval/internal/metrics"
	"crowdval/internal/model"
	"crowdval/internal/simulation"
	"crowdval/internal/spamdetect"
)

// StrategyKind names the guidance strategies the experiments compare.
type StrategyKind string

// Guidance strategies used throughout the experiments.
const (
	StrategyHybrid      StrategyKind = "hybrid"
	StrategyBaseline    StrategyKind = "baseline"
	StrategyRandom      StrategyKind = "random"
	StrategyUncertainty StrategyKind = "uncertainty"
	StrategyWorker      StrategyKind = "worker"
)

// defaultCandidateLimit bounds the information-gain computation per step so
// that the experiments remain laptop-scale; it mirrors the paper's practical
// measures (parallelization and matrix partitioning).
const defaultCandidateLimit = 6

// buildStrategy instantiates a guidance strategy with the experiments'
// default candidate limit and a source seeded from seed.
func buildStrategy(kind StrategyKind, candidateLimit int, seed int64) (guidance.Strategy, error) {
	if candidateLimit <= 0 {
		candidateLimit = defaultCandidateLimit
	}
	return guidance.New(string(kind), candidateLimit, rand.New(rand.NewSource(seed)))
}

// CurveConfig parameterizes one guided validation run whose precision is
// tracked against the expert effort.
type CurveConfig struct {
	Strategy           StrategyKind
	CandidateLimit     int
	BudgetFraction     float64 // fraction of objects the expert may validate (0 = all)
	StopAtPerfect      bool    // stop as soon as precision reaches 1.0
	MistakeProbability float64 // expert mistake probability (0 = oracle)
	ConfirmationPeriod int     // confirmation check period in validations (0 = disabled)
	Parallel           bool
	Seed               int64
}

// CurvePoint is one (effort, precision) measurement of a validation run.
type CurvePoint struct {
	// Effort is the expert effort relative to the number of objects.
	Effort float64
	// Precision of the deterministic assignment at that effort.
	Precision float64
	// Improvement is the normalized precision improvement R_i.
	Improvement float64
	// Uncertainty is H(P) at that effort.
	Uncertainty float64
}

// RunStats summarizes a validation run beyond the curve itself.
type RunStats struct {
	InitialPrecision float64
	FinalPrecision   float64
	EffortSpent      int
	Iterations       int
	EMIterations     int
	MistakesInjected int
	MistakesRevised  int
	// MistakeObjects are the objects on which the simulated expert gave an
	// erroneous first answer.
	MistakeObjects []int
	// RevisedObjects are the objects whose validation was re-elicited after
	// the confirmation check flagged them.
	RevisedObjects []int
	History        []core.IterationRecord
}

// DetectedMistakeRatio returns the fraction of injected expert mistakes whose
// object was subsequently revised by the confirmation check (Table 6).
func (s *RunStats) DetectedMistakeRatio() float64 {
	if len(s.MistakeObjects) == 0 {
		return 1
	}
	revised := make(map[int]bool, len(s.RevisedObjects))
	for _, o := range s.RevisedObjects {
		revised[o] = true
	}
	detected := 0
	for _, o := range s.MistakeObjects {
		if revised[o] {
			detected++
		}
	}
	return float64(detected) / float64(len(s.MistakeObjects))
}

// RunValidationCurve executes a guided validation process on the dataset and
// returns one curve point per iteration plus summary statistics.
func RunValidationCurve(d *simulation.Dataset, cfg CurveConfig) ([]CurvePoint, *RunStats, error) {
	strategy, err := buildStrategy(cfg.Strategy, cfg.CandidateLimit, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	budget := d.Answers.NumObjects()
	if cfg.BudgetFraction > 0 && cfg.BudgetFraction < 1 {
		budget = int(cfg.BudgetFraction * float64(d.Answers.NumObjects()))
		if budget < 1 {
			budget = 1
		}
	}
	engineCfg := core.Config{
		Strategy: strategy,
		Budget:   budget,
		Parallel: cfg.Parallel,
		// Require a few validated answers before a worker can be flagged:
		// quarantining on one or two observations removes truthful workers
		// and hurts precision early in a run (cf. Table 3 in the paper).
		Detector:       &spamdetect.Detector{MinValidatedAnswers: 4},
		MaxParallelism: 0,
		Rand:           rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	if cfg.ConfirmationPeriod > 0 {
		engineCfg.Confirmation = &guidance.ConfirmationCheck{
			Period: cfg.ConfirmationPeriod,
			// A bounded batch EM keeps the check lightweight; it starts from
			// majority voting and converges quickly on the small blocks the
			// check re-aggregates.
			Aggregator: &aggregation.BatchEM{Config: aggregation.EMConfig{MaxIterations: 20}},
		}
	}
	// RunValidationCurve takes no context; the run is not cancellable.
	ctx := context.TODO()
	engine, err := core.NewEngineContext(ctx, d.Answers, engineCfg)
	if err != nil {
		return nil, nil, err
	}

	var expert core.Expert
	var erroneous *simulation.ErroneousExpert
	if cfg.MistakeProbability > 0 {
		erroneous = simulation.NewErroneousExpert(d.Truth, d.Answers.NumLabels(), cfg.MistakeProbability,
			rand.New(rand.NewSource(cfg.Seed+2)))
		expert = erroneous
	} else {
		expert = &simulation.OracleExpert{Truth: d.Truth}
	}

	initialPrecision := metrics.Precision(engine.Assignment(), d.Truth)
	points := []CurvePoint{{
		Effort:      0,
		Precision:   initialPrecision,
		Improvement: 0,
		Uncertainty: engine.Uncertainty(),
	}}
	stats := &RunStats{InitialPrecision: initialPrecision}

	summary, err := engine.RunContext(ctx, expert, func(rec core.IterationRecord) bool {
		precision := metrics.Precision(engine.Assignment(), d.Truth)
		points = append(points, CurvePoint{
			Effort:      engine.EffortRatio(),
			Precision:   precision,
			Improvement: metrics.PrecisionImprovement(precision, initialPrecision),
			Uncertainty: rec.Uncertainty,
		})
		stats.EMIterations += rec.EMIterations
		stats.MistakesRevised += len(rec.RevisedObjects)
		stats.RevisedObjects = append(stats.RevisedObjects, rec.RevisedObjects...)
		if cfg.StopAtPerfect && precision >= 1 {
			return false
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	stats.FinalPrecision = metrics.Precision(summary.Assignment, d.Truth)
	stats.EffortSpent = summary.EffortSpent
	stats.Iterations = summary.Iterations
	stats.History = summary.History
	if erroneous != nil {
		stats.MistakesInjected = erroneous.MistakeCount()
		stats.MistakeObjects = erroneous.Mistakes()
	}
	return points, stats, nil
}

// PrecisionAtEffort interpolates the curve at the given effort level: it
// returns the precision of the last point whose effort does not exceed the
// level (curves are step functions over effort).
func PrecisionAtEffort(points []CurvePoint, effort float64) float64 {
	best := 0.0
	for _, p := range points {
		if p.Effort <= effort+1e-9 {
			best = p.Precision
		}
	}
	return best
}

// ImprovementAtEffort mirrors PrecisionAtEffort for the normalized precision
// improvement.
func ImprovementAtEffort(points []CurvePoint, effort float64) float64 {
	best := 0.0
	for _, p := range points {
		if p.Effort <= effort+1e-9 {
			best = p.Improvement
		}
	}
	return best
}

// EffortToReach returns the smallest effort at which the curve reaches the
// precision target, or 1.0 (full validation) if it never does.
func EffortToReach(points []CurvePoint, target float64) float64 {
	for _, p := range points {
		if p.Precision >= target {
			return p.Effort
		}
	}
	return 1.0
}

// aggregatePrecision aggregates a dataset without any expert input using
// batch EM and returns the precision of the instantiated assignment.
func aggregatePrecision(d *simulation.Dataset) (float64, error) {
	em := &aggregation.BatchEM{}
	res, err := em.Aggregate(d.Answers, nil, nil)
	if err != nil {
		return 0, err
	}
	return metrics.Precision(res.ProbSet.Instantiate(), d.Truth), nil
}

// CostPoint is one (normalized cost, precision, improvement) measurement of a
// cost-model experiment.
type CostPoint struct {
	CostPerObject float64
	Precision     float64
	Improvement   float64
}

// RunEVCostCurve subsamples the dataset to phi0 answers per object, then runs
// guided validation (hybrid strategy) and reports precision improvement as a
// function of the per-object cost φ0 + θ·i/n. Improvements are measured
// relative to the precision of the φ0 crowd answers alone.
func RunEVCostCurve(full *simulation.Dataset, phi0 int, theta float64, maxEffortFraction float64, seed int64) ([]CostPoint, error) {
	sub, err := simulation.Subsample(full, phi0, seed)
	if err != nil {
		return nil, err
	}
	points, stats, err := RunValidationCurve(sub, CurveConfig{
		Strategy:       StrategyHybrid,
		BudgetFraction: maxEffortFraction,
		StopAtPerfect:  true,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	n := float64(full.Answers.NumObjects())
	out := make([]CostPoint, 0, len(points))
	for _, p := range points {
		validations := p.Effort * n
		out = append(out, CostPoint{
			CostPerObject: float64(phi0) + theta*validations/n,
			Precision:     p.Precision,
			Improvement:   metrics.PrecisionImprovement(p.Precision, stats.InitialPrecision),
		})
	}
	return out, nil
}

// RunWOCostCurve reports the precision improvement of the crowd-only approach
// when the number of answers per object grows from phi0 to the given values.
// Improvements are measured relative to the precision at phi0, i.e. the same
// reference as RunEVCostCurve.
func RunWOCostCurve(full *simulation.Dataset, phi0 int, phis []int, seed int64) ([]CostPoint, error) {
	base, err := simulation.Subsample(full, phi0, seed)
	if err != nil {
		return nil, err
	}
	basePrecision, err := aggregatePrecision(base)
	if err != nil {
		return nil, err
	}
	out := []CostPoint{{CostPerObject: float64(phi0), Precision: basePrecision, Improvement: 0}}
	for _, phi := range phis {
		if phi <= phi0 {
			continue
		}
		d, err := simulation.Subsample(full, phi, seed)
		if err != nil {
			return nil, err
		}
		precision, err := aggregatePrecision(d)
		if err != nil {
			return nil, err
		}
		out = append(out, CostPoint{
			CostPerObject: float64(phi),
			Precision:     precision,
			Improvement:   metrics.PrecisionImprovement(precision, basePrecision),
		})
	}
	return out, nil
}

// ImprovementAtCost returns the improvement of the last cost point whose cost
// does not exceed the given budget per object.
func ImprovementAtCost(points []CostPoint, costPerObject float64) float64 {
	best := 0.0
	for _, p := range points {
		if p.CostPerObject <= costPerObject+1e-9 {
			if p.Improvement > best {
				best = p.Improvement
			}
		}
	}
	return best
}

// spammerGroundTruth lists the simulated uniform/random spammers and sloppy
// workers of a dataset — the targets of the detection experiments.
func spammerGroundTruth(d *simulation.Dataset) []int {
	var out []int
	for w, t := range d.WorkerTypes {
		if t == model.UniformSpammer || t == model.RandomSpammer {
			out = append(out, w)
		}
	}
	return out
}
