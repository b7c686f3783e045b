// Package crowdval is a Go library for minimizing expert effort when
// validating crowdsourced answers. It implements the framework of
// "Minimizing Efforts in Validating Crowd Answers" (Nguyen Quoc Viet Hung,
// Duong Chi Thang, Matthias Weidlich, Karl Aberer — SIGMOD 2015):
//
//   - probabilistic answer aggregation with an incremental, expert-aware
//     expectation-maximization algorithm (i-EM);
//   - guidance strategies that tell a validating expert which object to look
//     at next (uncertainty-driven, worker-driven, hybrid);
//   - detection and quarantining of faulty workers (spammers, sloppy workers);
//   - a confirmation check that catches erroneous expert input;
//   - a cost model for trading expert validations against additional crowd
//     answers under budget and completion-time constraints.
//
// The package is a facade over the internal packages; it exposes everything a
// downstream application needs: building answer sets, running guided
// validation sessions, simulating crowds for testing, and evaluating results.
//
// # Quick start
//
//	answers := crowdval.NewAnswerSet(numObjects, numWorkers, numLabels)
//	// ... fill answers with answers.SetAnswer(object, worker, label) ...
//	session, err := crowdval.NewSession(answers)
//	if err != nil { ... }
//	for !session.Done() {
//	    object := session.NextObject()           // which object to show the expert
//	    label := askTheHuman(object)             // your UI
//	    session.SubmitValidation(object, label)  // feed the answer back
//	}
//	result := session.Result()                   // final label per object
//
// # Streaming and serving
//
// Sessions are long-lived, updatable and serializable, matching the
// incremental nature of i-EM: Session.AddAnswers folds newly arrived crowd
// answers (including previously unseen objects and workers) into the running
// aggregation via the warm start, Session.SubmitValidations integrates a
// whole batch of expert input with one detection and aggregation pass, and
// Session.Snapshot / ResumeSession park and resume a session across
// processes with a bit-for-bit identical continuation. Expensive calls have
// context-aware variants (NextObjectContext, SubmitValidationContext, ...)
// whose cancellation rolls back cleanly.
//
// The crowdval serve command wraps all of this into a multi-tenant HTTP
// serving layer: many named sessions behind a JSON API, with serialized
// per-session writers and LRU eviction that parks cold sessions to disk via
// the snapshot codec and resumes them transparently on the next touch. See
// the README's "Running the server" section.
//
// # Errors
//
// The public API reports failures through typed sentinel errors
// (ErrSessionDone, ErrBudgetExhausted, ErrAlreadyValidated, ErrOutOfRange,
// ErrUnknownStrategy, ...) that support errors.Is; see the documentation in
// errors.go for the full taxonomy and ErrorName for stable string codes.
//
// See the examples directory for complete programs; examples/streaming walks
// through the ingest → batch-validate → snapshot → resume life cycle.
package crowdval

import (
	"fmt"

	"crowdval/internal/aggregation"
	"crowdval/internal/cverr"
	"crowdval/internal/guidance"
	"crowdval/internal/metrics"
	"crowdval/internal/model"
	"crowdval/internal/simulation"
	"crowdval/internal/spamdetect"
)

// Core model types, re-exported so users never import internal packages.
type (
	// Label identifies one of the possible labels of a classification task.
	Label = model.Label
	// AnswerSet holds the crowd answers: an objects × workers matrix of labels.
	AnswerSet = model.AnswerSet
	// Validation is the expert answer-validation function.
	Validation = model.Validation
	// ConfusionMatrix captures one worker's reliability.
	ConfusionMatrix = model.ConfusionMatrix
	// AssignmentMatrix holds the per-object label probabilities.
	AssignmentMatrix = model.AssignmentMatrix
	// ProbabilisticAnswerSet is the aggregated, probabilistic view of the answers.
	ProbabilisticAnswerSet = model.ProbabilisticAnswerSet
	// DeterministicAssignment is the final label per object.
	DeterministicAssignment = model.DeterministicAssignment
	// WorkerType classifies crowd workers (reliable, normal, sloppy, spammers).
	WorkerType = model.WorkerType
	// WorkerAssessment is the outcome of assessing one worker.
	WorkerAssessment = spamdetect.WorkerAssessment
	// Dataset bundles answers with ground truth and simulated worker types.
	Dataset = simulation.Dataset
	// CrowdConfig parameterizes the synthetic crowd generator.
	CrowdConfig = simulation.CrowdConfig
	// WorkerMix is the composition of a simulated worker community.
	WorkerMix = simulation.WorkerMix
)

// NoLabel denotes a missing answer or validation.
const NoLabel = model.NoLabel

// Worker types.
const (
	ReliableWorker = model.ReliableWorker
	NormalWorker   = model.NormalWorker
	SloppyWorker   = model.SloppyWorker
	UniformSpammer = model.UniformSpammer
	RandomSpammer  = model.RandomSpammer
)

// NewAnswerSet creates an empty answer set for numObjects objects, numWorkers
// workers and numLabels labels.
func NewAnswerSet(numObjects, numWorkers, numLabels int) (*AnswerSet, error) {
	return model.NewAnswerSet(numObjects, numWorkers, numLabels)
}

// NewAnswerSetFromMatrix builds an answer set from a dense objects × workers
// matrix of labels, where -1 (NoLabel) marks missing answers. numLabels is
// inferred from the largest label present unless explicitly provided via
// numLabels > 0; an explicit numLabels smaller than a label present in the
// matrix fails with an error wrapping ErrOutOfRange, and rows of differing
// lengths fail with an error wrapping ErrRaggedMatrix.
func NewAnswerSetFromMatrix(matrix [][]int, numLabels int) (*AnswerSet, error) {
	if len(matrix) == 0 || len(matrix[0]) == 0 {
		return nil, fmt.Errorf("%w: answer matrix has no objects or no workers", cverr.ErrDimensionMismatch)
	}
	width := len(matrix[0])
	maxLabel := 0
	for o, row := range matrix {
		if len(row) != width {
			return nil, fmt.Errorf("%w: row %d has %d columns, row 0 has %d",
				cverr.ErrRaggedMatrix, o, len(row), width)
		}
		for _, v := range row {
			if v > maxLabel {
				maxLabel = v
			}
		}
	}
	if numLabels <= 0 {
		numLabels = maxLabel + 1
	} else if maxLabel >= numLabels {
		return nil, fmt.Errorf("%w: explicit numLabels %d but the matrix contains label %d (labels are 0-based, so it needs at least %d)",
			cverr.ErrOutOfRange, numLabels, maxLabel, maxLabel+1)
	}
	// The answered cells, in (object, worker) order: the loader's linear
	// path.
	var objects, workers, labels []int64
	for o, row := range matrix {
		for w, v := range row {
			if v >= 0 {
				objects = append(objects, int64(o))
				workers = append(workers, int64(w))
				labels = append(labels, int64(v))
			}
		}
	}
	return model.LoadAnswerColumns(len(matrix), width, numLabels, objects, workers, labels)
}

// NewValidation creates an empty expert validation function for numObjects
// objects.
func NewValidation(numObjects int) *Validation {
	return model.NewValidation(numObjects)
}

// NewValidationFor creates an empty expert validation function sized for the
// given answer set.
func NewValidationFor(answers *AnswerSet) *Validation {
	return model.NewValidation(answers.NumObjects())
}

// GenerateCrowd produces a synthetic crowdsourcing dataset (answers, ground
// truth, worker types) for testing and benchmarking.
func GenerateCrowd(cfg CrowdConfig) (*Dataset, error) {
	return simulation.GenerateCrowd(cfg)
}

// GenerateDatasetProfile produces a synthetic dataset mimicking one of the
// paper's real-world datasets ("bb", "rte", "val", "twt", "art").
func GenerateDatasetProfile(name string, seed int64) (*Dataset, error) {
	return simulation.GenerateProfile(name, seed)
}

// DatasetProfileNames lists the available dataset profiles.
func DatasetProfileNames() []string { return simulation.ProfileNames() }

// Aggregate computes the probabilistic answer set for the given answers and
// expert validations using the incremental i-EM algorithm (validation and
// prev may be nil). Options tune the run: WithParallelism shards the E-/M-
// steps (bitwise neutral) and WithContext makes the aggregation cancellable.
func Aggregate(answers *AnswerSet, validation *Validation, prev *ProbabilisticAnswerSet, opts ...Option) (*ProbabilisticAnswerSet, error) {
	cfg := defaultSessionConfig()
	cfg.apply(opts)
	iem := &aggregation.IncrementalEM{Config: aggregation.EMConfig{Parallelism: cfg.parallelism}}
	res, err := iem.AggregateContext(cfg.ctx, answers, validation, prev)
	if err != nil {
		return nil, err
	}
	return res.ProbSet, nil
}

// MajorityVote aggregates the answers by majority voting and returns the
// resulting label per object. It is the baseline most applications start
// from. WithParallelism and WithContext apply.
func MajorityVote(answers *AnswerSet, opts ...Option) (DeterministicAssignment, error) {
	cfg := defaultSessionConfig()
	cfg.apply(opts)
	mv := &aggregation.MajorityVoting{Parallelism: cfg.parallelism}
	res, err := mv.AggregateContext(cfg.ctx, answers, nil, nil)
	if err != nil {
		return nil, err
	}
	return res.ProbSet.Instantiate(), nil
}

// Uncertainty returns the total entropy H(P) of a probabilistic answer set.
func Uncertainty(p *ProbabilisticAnswerSet) float64 { return aggregation.Uncertainty(p) }

// Precision returns the fraction of objects whose assigned label matches the
// ground truth.
func Precision(assignment, truth DeterministicAssignment) float64 {
	return metrics.Precision(assignment, truth)
}

// AssessWorkers evaluates every worker against the expert validations
// collected so far and reports spammer scores, error rates and the resulting
// spammer/sloppy flags. WithDetectionThresholds overrides τs and τp,
// WithParallelism shards the per-worker assessment, and WithContext makes
// the call cancellable.
func AssessWorkers(answers *AnswerSet, validation *Validation, opts ...Option) ([]WorkerAssessment, error) {
	cfg := defaultSessionConfig()
	cfg.apply(opts)
	det := &spamdetect.Detector{
		SpammerThreshold: cfg.spammerThreshold,
		SloppyThreshold:  cfg.sloppyThreshold,
		Parallelism:      cfg.parallelism,
	}
	detection, err := det.DetectContext(cfg.ctx, answers, validation, nil)
	if err != nil {
		return nil, err
	}
	return detection.Assessments, nil
}

// CheckValidations runs the confirmation check of §5.5 over all expert
// validations and returns the objects whose validation disagrees with the
// aggregation of the remaining evidence (likely erroneous expert input).
// WithParallelism shards the per-object re-aggregations and WithContext
// makes the scan cancellable.
func CheckValidations(answers *AnswerSet, validation *Validation, opts ...Option) ([]int, error) {
	cfg := defaultSessionConfig()
	cfg.apply(opts)
	check := &guidance.ConfirmationCheck{
		Aggregator: &aggregation.BatchEM{Config: aggregation.EMConfig{Parallelism: cfg.parallelism}},
	}
	suspects, err := check.CheckContext(cfg.ctx, answers, validation)
	if err != nil {
		return nil, err
	}
	objects := make([]int, 0, len(suspects))
	for _, s := range suspects {
		objects = append(objects, s.Object)
	}
	return objects, nil
}
