package aggregation

import (
	"math"
	"math/rand"
	"testing"

	"crowdval/internal/model"
)

// table1AnswerSet reproduces the running example of Table 1 in the paper:
// 5 workers label 4 objects with one of 4 labels. Paper labels 1–4 are mapped
// to 0–3.
func table1AnswerSet(t *testing.T) (*model.AnswerSet, model.DeterministicAssignment) {
	t.Helper()
	a := model.MustNewAnswerSet(4, 5, 4)
	answers := [4][5]model.Label{
		{1, 2, 1, 1, 2}, // o1
		{2, 1, 2, 1, 2}, // o2
		{0, 3, 0, 3, 2}, // o3
		{3, 0, 1, 0, 2}, // o4
	}
	for o := 0; o < 4; o++ {
		for w := 0; w < 5; w++ {
			if err := a.SetAnswer(o, w, answers[o][w]); err != nil {
				t.Fatal(err)
			}
		}
	}
	truth := model.DeterministicAssignment{1, 2, 0, 1}
	return a, truth
}

// syntheticAnswers generates answers for n objects, 2 labels, from workers
// with the given per-worker accuracies. Ground truth alternates labels.
func syntheticAnswers(t *testing.T, n int, accuracies []float64, seed int64) (*model.AnswerSet, model.DeterministicAssignment) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := model.MustNewAnswerSet(n, len(accuracies), 2)
	truth := make(model.DeterministicAssignment, n)
	for o := 0; o < n; o++ {
		truth[o] = model.Label(o % 2)
		for w, acc := range accuracies {
			var l model.Label
			if rng.Float64() < acc {
				l = truth[o]
			} else {
				l = model.Label(1 - int(truth[o]))
			}
			if err := a.SetAnswer(o, w, l); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a, truth
}

func precisionOf(d, g model.DeterministicAssignment) float64 {
	correct := 0
	for i := range d {
		if d[i] == g[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(d))
}

func TestMajorityVotingTable1Example(t *testing.T) {
	a, truth := table1AnswerSet(t)
	mv := &MajorityVoting{}
	res, err := mv.Aggregate(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := res.ProbSet.Instantiate()
	// Majority voting gets o1 and o2 right (as in the paper).
	if d[0] != truth[0] || d[1] != truth[1] {
		t.Fatalf("majority voting mislabeled o1/o2: %v", d)
	}
	// o4 is wrong under majority voting: label 0 gets two votes vs one for
	// the correct label 1.
	if d[3] == truth[3] {
		t.Fatalf("majority voting unexpectedly solved o4: %v", d)
	}
	// Probabilities for o1: 3 votes for label 1, 2 for label 2.
	if got := res.ProbSet.Assignment.Prob(0, 1); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("P(o1 = label1) = %v, want 0.6", got)
	}
	if err := res.ProbSet.Validate(); err != nil {
		t.Fatalf("probabilistic answer set inconsistent: %v", err)
	}
	if res.Iterations != 1 || !res.Converged {
		t.Fatalf("unexpected stats: %+v", res)
	}
}

func TestMajorityVotingHonorsValidation(t *testing.T) {
	a, _ := table1AnswerSet(t)
	v := model.NewValidation(4)
	v.Set(3, 1) // expert asserts the correct label for o4
	mv := &MajorityVoting{}
	res, err := mv.Aggregate(a, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ProbSet.Assignment.Prob(3, 1); got != 1 {
		t.Fatalf("validated object probability = %v, want 1", got)
	}
	d := res.ProbSet.Instantiate()
	if d[3] != 1 {
		t.Fatalf("validated object label = %d, want 1", d[3])
	}
}

func TestMajorityVotingUnansweredObjectIsUniform(t *testing.T) {
	a := model.MustNewAnswerSet(2, 2, 2)
	if err := a.SetAnswer(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	mv := &MajorityVoting{}
	res, err := mv.Aggregate(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ProbSet.Assignment.Prob(1, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("unanswered object probability = %v, want 0.5", got)
	}
}

func TestMajorityVotingErrors(t *testing.T) {
	mv := &MajorityVoting{}
	if _, err := mv.Aggregate(nil, nil, nil); err == nil {
		t.Fatal("nil answers accepted")
	}
	a := model.MustNewAnswerSet(2, 2, 2)
	if _, err := mv.Aggregate(a, model.NewValidation(5), nil); err == nil {
		t.Fatal("mismatched validation accepted")
	}
}

func TestCombineExpertAsWorker(t *testing.T) {
	a, _ := table1AnswerSet(t)
	v := model.NewValidation(4)
	v.Set(0, 1)
	v.Set(2, 0)
	combined, err := CombineExpertAsWorker(a, v)
	if err != nil {
		t.Fatal(err)
	}
	if combined.NumWorkers() != a.NumWorkers()+1 {
		t.Fatalf("combined workers = %d", combined.NumWorkers())
	}
	expertIdx := a.NumWorkers()
	if combined.Answer(0, expertIdx) != 1 || combined.Answer(2, expertIdx) != 0 {
		t.Fatal("expert answers not copied")
	}
	if combined.Answer(1, expertIdx) != model.NoLabel {
		t.Fatal("unvalidated object received an expert answer")
	}
	// Original crowd answers preserved.
	if combined.Answer(3, 2) != a.Answer(3, 2) {
		t.Fatal("crowd answers altered")
	}
	if _, err := CombineExpertAsWorker(nil, v); err == nil {
		t.Fatal("nil answers accepted")
	}
	// Nil validation yields a plain copy with an empty expert column.
	plain, err := CombineExpertAsWorker(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.AnswerCount() != a.AnswerCount() {
		t.Fatal("nil validation should add no answers")
	}
}

func TestBatchEMOutperformsMajorityVoting(t *testing.T) {
	// 3 accurate workers, 4 coin-flip workers: majority voting struggles,
	// EM should exploit the reliable workers' consistency.
	accuracies := []float64{0.95, 0.95, 0.95, 0.5, 0.5, 0.5, 0.5}
	a, truth := syntheticAnswers(t, 80, accuracies, 42)

	mv := &MajorityVoting{}
	mvRes, err := mv.Aggregate(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	em := &BatchEM{}
	emRes, err := em.Aggregate(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mvPrec := precisionOf(mvRes.ProbSet.Instantiate(), truth)
	emPrec := precisionOf(emRes.ProbSet.Instantiate(), truth)
	if emPrec < mvPrec {
		t.Fatalf("EM precision %v below majority voting %v", emPrec, mvPrec)
	}
	if emPrec < 0.9 {
		t.Fatalf("EM precision %v, want >= 0.9", emPrec)
	}
	if err := emRes.ProbSet.Validate(); err != nil {
		t.Fatalf("EM result inconsistent: %v", err)
	}
	if !emRes.Converged {
		t.Fatal("EM did not converge on easy data")
	}
	// EM should recover that the reliable workers are reliable.
	acc := emRes.ProbSet.Confusions[0].Accuracy(nil)
	if acc < 0.8 {
		t.Fatalf("estimated accuracy of reliable worker = %v, want >= 0.8", acc)
	}
}

func TestBatchEMInitStrategies(t *testing.T) {
	a, truth := syntheticAnswers(t, 200, []float64{0.9, 0.9, 0.8, 0.6, 0.5}, 7)
	for _, init := range []InitStrategy{InitMajorityVote, InitRandom} {
		em := &BatchEM{Init: init, Rand: rand.New(rand.NewSource(3))}
		res, err := em.Aggregate(a, nil, nil)
		if err != nil {
			t.Fatalf("init %d: %v", init, err)
		}
		if p := precisionOf(res.ProbSet.Instantiate(), truth); p < 0.85 {
			t.Fatalf("init %d precision = %v", init, p)
		}
	}
	em := &BatchEM{Init: InitStrategy(99)}
	if _, err := em.Aggregate(a, nil, nil); err == nil {
		t.Fatal("unknown init strategy accepted")
	}
}

func TestBatchEMHonorsAndIgnoresValidation(t *testing.T) {
	a, truth := syntheticAnswers(t, 30, []float64{0.6, 0.6, 0.4}, 11)
	v := model.NewValidation(30)
	for o := 0; o < 10; o++ {
		v.Set(o, truth[o])
	}
	em := &BatchEM{}
	res, err := em.Aggregate(a, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 10; o++ {
		if got := res.ProbSet.Assignment.Prob(o, truth[o]); got != 1 {
			t.Fatalf("validated object %d probability = %v, want 1", o, got)
		}
	}
	ignoring := &BatchEM{IgnoreValidation: true}
	res2, err := ignoring.Aggregate(a, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ProbSet.Validation.Count() != 0 {
		t.Fatal("IgnoreValidation should drop the expert input")
	}
}

func TestBatchEMErrors(t *testing.T) {
	em := &BatchEM{}
	if _, err := em.Aggregate(nil, nil, nil); err == nil {
		t.Fatal("nil answers accepted")
	}
	a := model.MustNewAnswerSet(2, 2, 2)
	if _, err := em.Aggregate(a, model.NewValidation(3), nil); err == nil {
		t.Fatal("mismatched validation accepted")
	}
}

func TestIncrementalEMPinsValidations(t *testing.T) {
	a, truth := syntheticAnswers(t, 30, []float64{0.7, 0.7, 0.5}, 5)
	iem := &IncrementalEM{}
	v := model.NewValidation(30)
	res, err := iem.Aggregate(a, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Now validate a handful of objects and re-aggregate from the previous state.
	for o := 0; o < 5; o++ {
		v.Set(o, truth[o])
	}
	res2, err := iem.Aggregate(a, v, res.ProbSet)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 5; o++ {
		if got := res2.ProbSet.Assignment.Prob(o, truth[o]); got != 1 {
			t.Fatalf("validated object %d probability = %v, want 1", o, got)
		}
	}
	if err := res2.ProbSet.Validate(); err != nil {
		t.Fatalf("i-EM result inconsistent: %v", err)
	}
}

func TestIncrementalEMWarmStartConvergesFaster(t *testing.T) {
	a, truth := syntheticAnswers(t, 60, []float64{0.75, 0.75, 0.7, 0.55, 0.5}, 9)
	iem := &IncrementalEM{}
	batch := &BatchEM{Init: InitRandom, Rand: rand.New(rand.NewSource(17))}

	v := model.NewValidation(60)
	prevRes, err := iem.Aggregate(a, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	totalIncremental, totalBatch := 0, 0
	for step := 0; step < 20; step++ {
		v.Set(step, truth[step])
		incRes, err := iem.Aggregate(a, v, prevRes.ProbSet)
		if err != nil {
			t.Fatal(err)
		}
		batchRes, err := batch.Aggregate(a, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalIncremental += incRes.Iterations
		totalBatch += batchRes.Iterations
		prevRes = incRes
	}
	if totalIncremental >= totalBatch {
		t.Fatalf("warm-started i-EM used %d iterations, cold batch EM used %d; expected a reduction",
			totalIncremental, totalBatch)
	}
}

func TestIncrementalEMFallsBackWithoutOrWithBadPrev(t *testing.T) {
	a, _ := syntheticAnswers(t, 20, []float64{0.8, 0.8}, 3)
	iem := &IncrementalEM{}
	res, err := iem.Aggregate(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ProbSet.Validate(); err != nil {
		t.Fatal(err)
	}
	// prev with mismatched dimensions must be ignored, not crash.
	other, _ := syntheticAnswers(t, 5, []float64{0.8}, 3)
	badPrev := model.NewProbabilisticAnswerSet(other)
	res2, err := iem.Aggregate(a, nil, badPrev)
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.ProbSet.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := iem.Aggregate(nil, nil, nil); err == nil {
		t.Fatal("nil answers accepted")
	}
	if _, err := iem.Aggregate(a, model.NewValidation(99), nil); err == nil {
		t.Fatal("mismatched validation accepted")
	}
}

func TestEMConfigDefaults(t *testing.T) {
	var cfg EMConfig
	if cfg.maxIterations() != DefaultMaxIterations {
		t.Fatal("default max iterations not applied")
	}
	if cfg.tolerance() != DefaultTolerance {
		t.Fatal("default tolerance not applied")
	}
	if cfg.smoothing() != DefaultSmoothing {
		t.Fatal("default smoothing not applied")
	}
	cfg = EMConfig{MaxIterations: 5, Tolerance: 0.1, Smoothing: 0.5}
	if cfg.maxIterations() != 5 || cfg.tolerance() != 0.1 || cfg.smoothing() != 0.5 {
		t.Fatal("explicit config ignored")
	}
}

func TestEMIterationCapRespected(t *testing.T) {
	a, _ := syntheticAnswers(t, 40, []float64{0.6, 0.6, 0.55, 0.5}, 13)
	em := &BatchEM{Config: EMConfig{MaxIterations: 2, Tolerance: 1e-12}}
	res, err := em.Aggregate(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("iterations = %d, cap was 2", res.Iterations)
	}
}
