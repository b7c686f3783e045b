// Package aggregation implements the answer-aggregation component of the
// validation framework (§4 of the paper): majority voting, the classic batch
// Dawid–Skene expectation maximization, and the paper's incremental i-EM
// algorithm that treats expert validations as first-class ground truth and
// warm-starts from the previous validation iteration.
//
// Every aggregator produces a probabilistic answer set P = <N, e, U, C>
// together with statistics about the computation (number of EM iterations,
// convergence). The validation engine and the guidance scorers call the
// concrete aggregators directly: i-EM for the conclude step and the
// hypothetical re-aggregations, batch EM for the confirmation check.
//
// The EM aggregators form the hot path of the pay-as-you-go validation loop
// (the engine re-aggregates after every expert answer), so they read the
// answer set exclusively through its sparse adjacency views — one E/M
// iteration costs O(#answers · m) — and shard the E-step over objects and
// the M-step over workers (EMConfig.Parallelism). Sharding is bitwise
// deterministic: results are identical for every parallelism degree, which
// the equivalence tests in em_parallel_test.go assert.
package aggregation

import (
	"context"
	"fmt"

	"crowdval/internal/cverr"
	"crowdval/internal/model"
	"crowdval/internal/par"
)

// Result is the outcome of one aggregation run ("conclude" step of the
// validation process).
type Result struct {
	// ProbSet is the resulting probabilistic answer set.
	ProbSet *model.ProbabilisticAnswerSet
	// Iterations is the number of EM iterations that were executed
	// (1 for non-iterative aggregators such as majority voting). For the
	// delta-incremental path it counts the full-sweep settle iterations only;
	// the frontier-restricted iterations are reported separately.
	Iterations int
	// DeltaIterations is the number of frontier-restricted iterations the
	// delta-incremental path ran before the full-sweep settle phase (0 when
	// the delta phase was skipped or did not run).
	DeltaIterations int
	// DeltaOutcome reports which way the delta-incremental path went:
	// DeltaNotRun unless the call was a delta-enabled AggregateDeltaContext,
	// otherwise whether the frontier phase was accepted, stalled at its
	// iteration cap, or skipped for a cold start or an oversized frontier.
	DeltaOutcome DeltaOutcome
	// Converged reports whether the iterative aggregation reached its
	// convergence tolerance before hitting the iteration cap.
	Converged bool
}

// checkInputs validates the (answers, validation) pair every aggregator
// receives and returns the validation to use (an empty one when nil).
func checkInputs(answers *model.AnswerSet, validation *model.Validation) (*model.Validation, error) {
	if answers == nil {
		return nil, fmt.Errorf("aggregation: %w", cverr.ErrNilAnswerSet)
	}
	if validation == nil {
		return model.NewValidation(answers.NumObjects()), nil
	}
	if validation.NumObjects() != answers.NumObjects() {
		return nil, fmt.Errorf("%w: validation covers %d objects, answer set has %d",
			cverr.ErrDimensionMismatch, validation.NumObjects(), answers.NumObjects())
	}
	return validation, nil
}

// EMConfigOf returns the EM parameters of an i-EM aggregator — callers that
// mirror aggregation behavior (the hypothetical guidance scorer's M-step
// smoothing) resolve the configuration through this one helper. A nil
// aggregator yields the zero configuration, i.e. the defaults.
func EMConfigOf(agg *IncrementalEM) EMConfig {
	if agg == nil {
		return EMConfig{}
	}
	return agg.Config
}

// MajorityVoting aggregates answers by relative label frequency per object.
// It ignores worker reliability and serves as the simplest baseline (Table 1).
// Expert validations, when present, override the vote for the validated
// objects. Confusion matrices are estimated against the majority-vote labels.
type MajorityVoting struct {
	// Parallelism shards the per-object vote and the per-worker confusion
	// estimation. Values < 1 use GOMAXPROCS; 1 forces the serial path.
	// Results are identical for every setting.
	Parallelism int
}

// Aggregate is AggregateContext without cancellation.
func (mv *MajorityVoting) Aggregate(answers *model.AnswerSet, validation *model.Validation, prev *model.ProbabilisticAnswerSet) (*Result, error) {
	return mv.AggregateContext(context.Background(), answers, validation, prev)
}

// AggregateContext computes the majority-vote answer set. Validated
// objects are pinned to the expert's label; prev is ignored. It returns
// ctx.Err() once the context is done.
func (mv *MajorityVoting) AggregateContext(ctx context.Context, answers *model.AnswerSet, validation *model.Validation, _ *model.ProbabilisticAnswerSet) (*Result, error) {
	validation, err := checkInputs(answers, validation)
	if err != nil {
		return nil, err
	}
	m := answers.NumLabels()
	probSet := &model.ProbabilisticAnswerSet{
		Answers:    answers,
		Validation: validation.Clone(),
		Confusions: make([]*model.ConfusionMatrix, answers.NumWorkers()),
	}
	probSet.Assignment, err = majorityVoteAssignment(ctx, answers, validation, mv.Parallelism)
	if err != nil {
		return nil, err
	}

	// Estimate confusion matrices against the majority-vote labels. Workers
	// are independent; each shard fills disjoint slots of the slice.
	mvLabels := probSet.Instantiate()
	err = par.ForCtx(ctx, answers.NumWorkers(), mv.Parallelism, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			c := model.NewConfusionMatrix(m)
			for _, oa := range answers.WorkerView(w) {
				trueLabel := mvLabels[oa.Object]
				if trueLabel == model.NoLabel {
					continue
				}
				c.Add(trueLabel, oa.Label, 1)
			}
			c.NormalizeRows()
			probSet.Confusions[w] = c
		}
	})
	if err != nil {
		return nil, err
	}

	return &Result{ProbSet: probSet, Iterations: 1, Converged: true}, nil
}

// majorityVoteAssignment computes the per-object label-frequency assignment
// with validated objects pinned (the vote half of MajorityVoting). The EM
// cold starts use it directly so they do not pay for the confusion-matrix
// estimation they would discard. Rows are independent, so the object range
// is sharded; each shard writes only its own rows, keeping results
// deterministic. On cancellation the partially written matrix is discarded
// and ctx.Err() returned.
func majorityVoteAssignment(ctx context.Context, answers *model.AnswerSet, validation *model.Validation, parallelism int) (*model.AssignmentMatrix, error) {
	n, m := answers.NumObjects(), answers.NumLabels()
	u := model.NewAssignmentMatrix(n, m)
	err := par.ForCtx(ctx, n, parallelism, func(lo, hi int) {
		counts := make([]int, m)
		for o := lo; o < hi; o++ {
			if l := validation.Get(o); l != model.NoLabel {
				u.SetCertain(o, l)
				continue
			}
			for l := range counts {
				counts[l] = 0
			}
			total := 0
			for _, wa := range answers.ObjectView(o) {
				counts[wa.Label]++
				total++
			}
			row := u.RowSlice(o)
			if total == 0 {
				for l := range row {
					row[l] = 1 / float64(m)
				}
			} else {
				for l, c := range counts {
					row[l] = float64(c) / float64(total)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return u, nil
}

// CombineExpertAsWorker returns a copy of the answer set extended with one
// additional pseudo-worker whose answers are the expert validations. It
// implements the "Combined" strategy of §6.3, where expert input is treated
// as an ordinary crowd answer rather than as ground truth.
func CombineExpertAsWorker(answers *model.AnswerSet, validation *model.Validation) (*model.AnswerSet, error) {
	if answers == nil {
		return nil, fmt.Errorf("aggregation: %w", cverr.ErrNilAnswerSet)
	}
	combined, err := model.NewAnswerSet(answers.NumObjects(), answers.NumWorkers()+1, answers.NumLabels())
	if err != nil {
		return nil, err
	}
	for o := 0; o < answers.NumObjects(); o++ {
		for _, wa := range answers.ObjectView(o) {
			if err := combined.SetAnswer(o, wa.Worker, wa.Label); err != nil {
				return nil, err
			}
		}
		if validation != nil {
			if l := validation.Get(o); l != model.NoLabel {
				if err := combined.SetAnswer(o, answers.NumWorkers(), l); err != nil {
					return nil, err
				}
			}
		}
	}
	return combined, nil
}
