package spamdetect

import (
	"context"
	"fmt"
	"math"
	"slices"

	"crowdval/internal/cverr"
	"crowdval/internal/model"
	"crowdval/internal/par"
)

// Default detection thresholds. The paper evaluates τs ∈ {0.1, 0.2, 0.3} and
// settles on 0.2 (§6.5); τp is kept at 0.8 throughout.
const (
	DefaultSpammerThreshold = 0.2
	DefaultSloppyThreshold  = 0.8
	// DefaultMinValidatedAnswers is the minimal number of validated answers
	// a worker must have before it is assessed at all; with fewer
	// observations the validation-based confusion matrix is meaningless and
	// truthful workers would be flagged spuriously (Table 3 discussion).
	DefaultMinValidatedAnswers = 2
)

// Detector assesses workers based on expert validations.
type Detector struct {
	// SpammerThreshold is τs: workers whose spammer score falls below it are
	// flagged as uniform/random spammers. Values <= 0 use the default.
	SpammerThreshold float64
	// SloppyThreshold is τp: workers whose validation error rate exceeds it
	// are flagged as sloppy. Values <= 0 use the default.
	SloppyThreshold float64
	// MinValidatedAnswers is the minimal number of validated answers before
	// a worker is assessed. Values <= 0 use the default.
	MinValidatedAnswers int
	// Parallelism shards the per-worker assessment of Detect. Values < 1
	// use GOMAXPROCS; 1 forces the serial path. Workers are assessed
	// independently, so results are identical for every setting.
	Parallelism int
}

func (d *Detector) spammerThreshold() float64 {
	if d == nil || d.SpammerThreshold <= 0 {
		return DefaultSpammerThreshold
	}
	return d.SpammerThreshold
}

func (d *Detector) sloppyThreshold() float64 {
	if d == nil || d.SloppyThreshold <= 0 {
		return DefaultSloppyThreshold
	}
	return d.SloppyThreshold
}

func (d *Detector) minValidatedAnswers() int {
	if d == nil || d.MinValidatedAnswers <= 0 {
		return DefaultMinValidatedAnswers
	}
	return d.MinValidatedAnswers
}

func (d *Detector) parallelism() int {
	if d == nil {
		return 0
	}
	return d.Parallelism
}

// WorkerAssessment is the per-worker outcome of a detection run.
type WorkerAssessment struct {
	Worker int
	// ValidatedAnswers is the number of the worker's answers that fall on
	// expert-validated objects.
	ValidatedAnswers int
	// SpammerScore is the distance of the validation-based confusion matrix
	// to its closest rank-one matrix; small values indicate spammers.
	// It is NaN when the worker was not assessed.
	SpammerScore float64
	// ErrorRate is the prior-weighted off-diagonal mass of the
	// validation-based confusion matrix; large values indicate sloppy
	// workers. It is NaN when the worker was not assessed.
	ErrorRate float64
	// Spammer and Sloppy are the threshold decisions.
	Spammer bool
	Sloppy  bool
}

// Faulty reports whether the assessment flags the worker as either a spammer
// or a sloppy worker.
func (a WorkerAssessment) Faulty() bool { return a.Spammer || a.Sloppy }

// Detection is the outcome of assessing a whole worker community.
type Detection struct {
	Assessments []WorkerAssessment
}

// FaultyWorkers returns the indices of all workers flagged as spammer or
// sloppy, in ascending order.
func (d Detection) FaultyWorkers() []int {
	var out []int
	for _, a := range d.Assessments {
		if a.Faulty() {
			out = append(out, a.Worker)
		}
	}
	return out
}

// Spammers returns the indices of all workers flagged as uniform/random
// spammers.
func (d Detection) Spammers() []int {
	var out []int
	for _, a := range d.Assessments {
		if a.Spammer {
			out = append(out, a.Worker)
		}
	}
	return out
}

// FaultyRatio returns the fraction of workers flagged as faulty, the r_i
// quantity of the hybrid weighting scheme (Eq. 15).
func (d Detection) FaultyRatio() float64 {
	if len(d.Assessments) == 0 {
		return 0
	}
	return float64(len(d.FaultyWorkers())) / float64(len(d.Assessments))
}

// ValidationConfusion builds the confusion matrix of one worker using only
// expert-validated objects: rows are the expert's labels, columns the
// worker's answers. The second return value is the number of validated
// answers that contributed. Rows without observations become uniform.
func ValidationConfusion(answers *model.AnswerSet, validation *model.Validation, worker int) (*model.ConfusionMatrix, int) {
	m := answers.NumLabels()
	c := model.NewConfusionMatrix(m)
	count := 0
	// Walk the worker's sparse adjacency list rather than the validated
	// objects: a worker answers a bounded number of questions, so this is
	// O(degree) per worker independent of how many validations exist.
	for _, oa := range answers.WorkerView(worker) {
		trueLabel := validation.Get(oa.Object)
		if trueLabel == model.NoLabel {
			continue
		}
		c.Add(trueLabel, oa.Label, 1)
		count++
	}
	c.NormalizeRows()
	return c, count
}

// SpammerScore computes s(w) = min_{rank-1 F̂} ‖F − F̂‖_F for a confusion
// matrix (Eq. 11).
func SpammerScore(c *model.ConfusionMatrix) float64 {
	return rank1Distance(c.Dense(), c.NumLabels())
}

// maxJacobiSweeps bounds the Jacobi sweeps of rank1Distance. Small matrices
// converge in a handful of sweeps; the bound only guards pathological input.
const maxJacobiSweeps = 60

// rank1Distance returns sqrt(Σ_{i≥2} σ_i²), the Frobenius distance of the
// m×m row-major matrix a to its closest rank-one matrix (Eckart–Young). The
// singular values σ_1 ≥ σ_2 ≥ … are the column norms that one-sided Jacobi
// rotations leave once the columns are mutually orthogonal; norms at or
// below the convergence threshold count as zero. a is overwritten.
func rank1Distance(a []float64, m int) float64 {
	const eps = 1e-12
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		offDiag := 0.0
		for p := 0; p < m-1; p++ {
			for q := p + 1; q < m; q++ {
				// The 2×2 Gram matrix of columns p and q.
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i := 0; i < len(a); i += m {
					ap, aq := a[i+p], a[i+q]
					alpha += ap * ap
					beta += aq * aq
					gamma += ap * aq
				}
				offDiag += math.Abs(gamma)
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
					continue
				}
				// The rotation that annihilates gamma.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < len(a); i += m {
					ap, aq := a[i+p], a[i+q]
					a[i+p] = c*ap - s*aq
					a[i+q] = s*ap + c*aq
				}
			}
		}
		if offDiag < eps {
			break
		}
	}
	// Column j's norm overwrites a[j], which no later column reads.
	sigma := a[:m]
	for j := range sigma {
		norm := 0.0
		for i := j; i < len(a); i += m {
			norm += a[i] * a[i]
		}
		norm = math.Sqrt(norm)
		if !(norm > eps) { // a NaN norm is flushed too
			norm = 0
		}
		sigma[j] = norm
	}
	// Sum the squares of all but the largest, in descending order: the order
	// fixes the bits of the score.
	slices.Sort(sigma)
	sum := 0.0
	for j := m - 2; j >= 0; j-- {
		sum += sigma[j] * sigma[j]
	}
	return math.Sqrt(sum)
}

// Detect assesses every worker of the answer set against the current expert
// validations. priors are the label priors used to weight the error rate; a
// nil slice weights labels uniformly.
func (d *Detector) Detect(answers *model.AnswerSet, validation *model.Validation, priors []float64) (Detection, error) {
	return d.DetectContext(context.Background(), answers, validation, priors)
}

// DetectContext is Detect with cancellation: the sharded per-worker
// assessment observes ctx and the call returns ctx.Err() once it is done.
func (d *Detector) DetectContext(ctx context.Context, answers *model.AnswerSet, validation *model.Validation, priors []float64) (Detection, error) {
	if answers == nil {
		return Detection{}, fmt.Errorf("spamdetect: %w", cverr.ErrNilAnswerSet)
	}
	if validation == nil {
		return Detection{}, fmt.Errorf("spamdetect: %w", cverr.ErrNilValidation)
	}
	if validation.NumObjects() != answers.NumObjects() {
		return Detection{}, fmt.Errorf("%w: validation covers %d objects, answer set has %d",
			cverr.ErrDimensionMismatch, validation.NumObjects(), answers.NumObjects())
	}
	spamThr := d.spammerThreshold()
	sloppyThr := d.sloppyThreshold()
	minAnswers := d.minValidatedAnswers()

	// Workers are assessed independently, so the worker range is sharded;
	// every shard writes disjoint slots of the assessment slice.
	k := answers.NumWorkers()
	assessments := make([]WorkerAssessment, k)
	err := par.ForCtx(ctx, k, d.parallelism(), func(lo, hi int) {
		for w := lo; w < hi; w++ {
			assessments[w] = assessWorker(answers, validation, w, priors, spamThr, sloppyThr, minAnswers)
		}
	})
	if err != nil {
		return Detection{}, err
	}
	return Detection{Assessments: assessments}, nil
}

// assessWorker computes one worker's assessment against the validation state
// with explicit thresholds — the shared body of the community detection shard
// loop and the per-worker AssessWorker entry point.
func assessWorker(answers *model.AnswerSet, validation *model.Validation, worker int, priors []float64,
	spamThr, sloppyThr float64, minAnswers int) WorkerAssessment {

	confusion, count := ValidationConfusion(answers, validation, worker)
	assessment := WorkerAssessment{
		Worker:           worker,
		ValidatedAnswers: count,
		SpammerScore:     math.NaN(),
		ErrorRate:        math.NaN(),
	}
	if count >= minAnswers {
		score := SpammerScore(confusion)
		errRate := confusion.ErrorRate(priors)
		assessment.SpammerScore = score
		assessment.ErrorRate = errRate
		assessment.Spammer = score < spamThr
		assessment.Sloppy = errRate > sloppyThr
	}
	return assessment
}

// AssessWorker assesses a single worker against the current expert
// validations, using the detector's thresholds — the building block of
// incremental guidance scoring, where a hypothetical validation of object o
// can only change the assessments of the workers who answered o. The result
// equals the worker's slot of a full Detect run over the same state.
func (d *Detector) AssessWorker(answers *model.AnswerSet, validation *model.Validation, worker int, priors []float64) (WorkerAssessment, error) {
	if answers == nil {
		return WorkerAssessment{}, fmt.Errorf("spamdetect: %w", cverr.ErrNilAnswerSet)
	}
	if validation == nil {
		return WorkerAssessment{}, fmt.Errorf("spamdetect: %w", cverr.ErrNilValidation)
	}
	if worker < 0 || worker >= answers.NumWorkers() {
		return WorkerAssessment{}, fmt.Errorf("%w: worker %d (answer set has %d workers)",
			cverr.ErrOutOfRange, worker, answers.NumWorkers())
	}
	return assessWorker(answers, validation, worker, priors,
		d.spammerThreshold(), d.sloppyThreshold(), d.minValidatedAnswers()), nil
}
