package guidance

import (
	"crowdval/internal/model"
	"crowdval/internal/spamdetect"
)

// WorkerDriven selects the object whose validation is expected to unmask the
// most faulty workers (§5.3, Eq. 12–14).
//
// The scorer detects the community once per selection and then reassesses,
// per (candidate, label) hypothesis, only the workers who answered the
// candidate — the only workers whose validation-based confusion matrix the
// hypothetical validation can change — so one candidate costs
// O(answers-on-o) worker assessments instead of O(#workers). This is not an
// approximation: the counts equal the full recount of
// ExpectedDetectedFaultyWorkers bit for bit, so the scorer is the same with
// and without Context.DeltaScore.
type WorkerDriven struct {
	// CandidateLimit restricts the scoring to the CandidateLimit candidates
	// with the highest entropy. Zero or negative values evaluate every
	// candidate.
	CandidateLimit int
}

// Name implements Strategy.
func (w *WorkerDriven) Name() string { return "worker-driven" }

// SelectK implements Strategy: the top-k candidates ranked by the expected
// number of detected faulty workers.
func (w *WorkerDriven) SelectK(ctx *Context, k int) ([]ScoredObject, error) {
	return selectTop(ctx, w, k)
}

// Rank implements Ranker. The scorer gives no bound, so every candidate is
// scored.
func (w *WorkerDriven) Rank(ctx *Context, from *Ranking, k int) (*Ranking, RankWork, error) {
	return rankWith(ctx, w, from, k)
}

func (w *WorkerDriven) candidates(ctx *Context) ([]int, error) {
	return ctx.prefilter(w.CandidateLimit)
}

func (w *WorkerDriven) bounds(*Context, []int) ([]float64, error) { return nil, nil }

// scorer runs the baseline community detection (once, before scoring fans
// out) and builds the per-goroutine scorer factory.
func (w *WorkerDriven) scorer(ctx *Context) (scorerFactory, error) {
	priors := ctx.ProbSet.Assignment.Priors()
	detector := ctx.detector()
	base, err := detector.DetectContext(ctx.ctx(), ctx.Answers, ctx.ProbSet.Validation, priors)
	if err != nil {
		return nil, err
	}
	baseFaulty := len(base.FaultyWorkers())
	return func() (scorerFunc, func()) {
		// One scratch validation per scoring goroutine, set/unset per
		// hypothesis — not one Clone per (candidate, label).
		scratch := ctx.ProbSet.Validation.Clone()
		return func(o int) (float64, error) {
			return expectedFaultyIncremental(ctx, detector, o, priors, scratch, base.Assessments, baseFaulty)
		}, nil
	}, nil
}

// ExpectedDetectedFaultyWorkers computes R(W | o) = Σ_l U(o, l)·R(W | o = l)
// (Eq. 13) by full recount: the expected number of faulty workers that would
// be detected if the expert validated object o, where the expectation is
// taken over the current label distribution of o, and every hypothesis
// re-runs the whole community detection. It is the reference the
// incremental scorer of WorkerDriven is tested against.
func ExpectedDetectedFaultyWorkers(ctx *Context, object int, priors []float64) (float64, error) {
	detector := ctx.detector()
	hypo := ctx.ProbSet.Validation.Clone()
	m := ctx.ProbSet.Assignment.NumLabels()
	expected := 0.0
	for l := 0; l < m; l++ {
		p := ctx.ProbSet.Assignment.Prob(object, model.Label(l))
		if p <= 0 {
			continue
		}
		hypo.Set(object, model.Label(l))
		det, err := detector.DetectContext(ctx.ctx(), ctx.Answers, hypo, priors)
		if err != nil {
			return 0, err
		}
		expected += p * float64(len(det.FaultyWorkers()))
	}
	return expected, nil
}

// expectedFaultyIncremental computes R(W | o) against a baseline detection:
// per hypothesis only the candidate's answering workers are reassessed, and
// the baseline faulty count is adjusted by their flag changes. A worker who
// did not answer o has an identical validation-based confusion matrix under
// the hypothesis, so its assessment cannot change — the incremental count
// equals the full recount exactly.
func expectedFaultyIncremental(ctx *Context, detector *spamdetect.Detector, object int, priors []float64,
	scratch *model.Validation, base []spamdetect.WorkerAssessment, baseFaulty int) (float64, error) {

	m := ctx.ProbSet.Assignment.NumLabels()
	expected := 0.0
	for l := 0; l < m; l++ {
		p := ctx.ProbSet.Assignment.Prob(object, model.Label(l))
		if p <= 0 {
			continue
		}
		scratch.Set(object, model.Label(l))
		count := baseFaulty
		for _, wa := range ctx.Answers.ObjectView(object) {
			assessment, err := detector.AssessWorker(ctx.Answers, scratch, wa.Worker, priors)
			if err != nil {
				scratch.Set(object, model.NoLabel)
				return 0, err
			}
			if assessment.Faulty() != base[wa.Worker].Faulty() {
				if assessment.Faulty() {
					count++
				} else {
					count--
				}
			}
		}
		scratch.Set(object, model.NoLabel)
		expected += p * float64(count)
	}
	return expected, nil
}
