package spamdetect

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"crowdval/internal/model"
)

// paperWorkersAnswerSet builds the example of Table 2: workers A (random
// spammer) and A' (uniform spammer) answer eight objects with labels {T, F}
// mapped to {1, 0}. A third, reliable worker is added for contrast.
func paperWorkersAnswerSet(t *testing.T) (*model.AnswerSet, *model.Validation) {
	t.Helper()
	// Correct:  T T F F T F T F  ->  1 1 0 0 1 0 1 0
	correct := []model.Label{1, 1, 0, 0, 1, 0, 1, 0}
	// Worker A: T F T F T F F T  ->  1 0 1 0 1 0 0 1
	workerA := []model.Label{1, 0, 1, 0, 1, 0, 0, 1}
	// Worker A': all F -> all 0
	workerA2 := []model.Label{0, 0, 0, 0, 0, 0, 0, 0}

	a := model.MustNewAnswerSet(8, 3, 2)
	v := model.NewValidation(8)
	for o := 0; o < 8; o++ {
		if err := a.SetAnswer(o, 0, workerA[o]); err != nil {
			t.Fatal(err)
		}
		if err := a.SetAnswer(o, 1, workerA2[o]); err != nil {
			t.Fatal(err)
		}
		if err := a.SetAnswer(o, 2, correct[o]); err != nil { // reliable worker
			t.Fatal(err)
		}
		v.Set(o, correct[o])
	}
	return a, v
}

func TestValidationConfusionTable2(t *testing.T) {
	a, v := paperWorkersAnswerSet(t)
	// Worker A (random spammer): both rows should be (0.5, 0.5).
	confA, count := ValidationConfusion(a, v, 0)
	if count != 8 {
		t.Fatalf("validated answers = %d", count)
	}
	for l := 0; l < 2; l++ {
		for l2 := 0; l2 < 2; l2++ {
			if got := confA.At(model.Label(l), model.Label(l2)); math.Abs(got-0.5) > 1e-12 {
				t.Fatalf("worker A confusion (%d,%d) = %v, want 0.5", l, l2, got)
			}
		}
	}
	// Worker A' (uniform spammer): a single column of ones.
	confA2, _ := ValidationConfusion(a, v, 1)
	if confA2.At(0, 0) != 1 || confA2.At(1, 0) != 1 || confA2.At(0, 1) != 0 {
		t.Fatalf("worker A' confusion:\n%v", confA2)
	}
	// Reliable worker: identity.
	confR, _ := ValidationConfusion(a, v, 2)
	if confR.At(0, 0) != 1 || confR.At(1, 1) != 1 {
		t.Fatalf("reliable confusion:\n%v", confR)
	}
}

func TestValidationConfusionPartialValidation(t *testing.T) {
	a, _ := paperWorkersAnswerSet(t)
	v := model.NewValidation(8)
	v.Set(0, 1)
	// Worker that did not answer the validated object contributes nothing.
	b := model.MustNewAnswerSet(8, 1, 2)
	conf, count := ValidationConfusion(b, v, 0)
	if count != 0 {
		t.Fatalf("count = %d, want 0", count)
	}
	// Unobserved rows become uniform.
	if conf.At(0, 0) != 0.5 || conf.At(1, 1) != 0.5 {
		t.Fatalf("unobserved confusion not uniform:\n%v", conf)
	}
	_ = a
}

func TestSpammerScores(t *testing.T) {
	a, v := paperWorkersAnswerSet(t)
	scoreOf := func(w int) float64 {
		t.Helper()
		conf, _ := ValidationConfusion(a, v, w)
		return SpammerScore(conf)
	}
	if s := scoreOf(0); s > 1e-9 {
		t.Fatalf("random spammer score = %v, want ~0", s)
	}
	if s := scoreOf(1); s > 1e-9 {
		t.Fatalf("uniform spammer score = %v, want ~0", s)
	}
	if s := scoreOf(2); s < 0.5 {
		t.Fatalf("reliable worker score = %v, want large", s)
	}
}

func TestDetectorFlagsSpammersAndSkipsUnobservedWorkers(t *testing.T) {
	a, v := paperWorkersAnswerSet(t)
	det := &Detector{}
	detection, err := det.Detect(a, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(detection.Assessments) != 3 {
		t.Fatalf("assessments = %d", len(detection.Assessments))
	}
	spammers := detection.Spammers()
	if len(spammers) != 2 || spammers[0] != 0 || spammers[1] != 1 {
		t.Fatalf("spammers = %v, want [0 1]", spammers)
	}
	if detection.Assessments[2].Faulty() {
		t.Fatal("reliable worker flagged as faulty")
	}
	if got := detection.FaultyRatio(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("faulty ratio = %v", got)
	}
	// With an empty validation nobody can be assessed.
	empty := model.NewValidation(8)
	detection2, err := det.Detect(a, empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(detection2.FaultyWorkers()) != 0 {
		t.Fatalf("workers flagged without any validations: %v", detection2.FaultyWorkers())
	}
	if !math.IsNaN(detection2.Assessments[0].SpammerScore) {
		t.Fatal("unassessed worker should have NaN score")
	}
}

func TestDetectorFlagsSloppyWorkers(t *testing.T) {
	// Worker answers the *opposite* label every time: not a spammer (the
	// confusion matrix is anti-diagonal, far from rank one) but clearly
	// sloppy/adversarial — detected via the error rate.
	a := model.MustNewAnswerSet(6, 1, 2)
	v := model.NewValidation(6)
	for o := 0; o < 6; o++ {
		truth := model.Label(o % 2)
		if err := a.SetAnswer(o, 0, model.Label(1-int(truth))); err != nil {
			t.Fatal(err)
		}
		v.Set(o, truth)
	}
	det := &Detector{SloppyThreshold: 0.8}
	detection, err := det.Detect(a, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !detection.Assessments[0].Sloppy {
		t.Fatalf("anti-correlated worker not flagged sloppy: %+v", detection.Assessments[0])
	}
	if detection.Assessments[0].Spammer {
		t.Fatal("anti-correlated worker wrongly flagged as rank-one spammer")
	}
}

func TestDetectorThresholdDefaultsAndErrors(t *testing.T) {
	var d *Detector
	if d.spammerThreshold() != DefaultSpammerThreshold ||
		d.sloppyThreshold() != DefaultSloppyThreshold ||
		d.minValidatedAnswers() != DefaultMinValidatedAnswers {
		t.Fatal("nil detector should use defaults")
	}
	det := &Detector{SpammerThreshold: 0.3, SloppyThreshold: 0.5, MinValidatedAnswers: 5}
	if det.spammerThreshold() != 0.3 || det.sloppyThreshold() != 0.5 || det.minValidatedAnswers() != 5 {
		t.Fatal("explicit thresholds ignored")
	}
	if _, err := det.Detect(nil, nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	a := model.MustNewAnswerSet(2, 1, 2)
	if _, err := det.Detect(a, model.NewValidation(3), nil); err == nil {
		t.Fatal("mismatched validation accepted")
	}
}

func TestMinValidatedAnswersProtectsTruthfulWorkers(t *testing.T) {
	// Table 3: a truthful worker looks like a random spammer when only four
	// of its answers have been validated. With MinValidatedAnswers above the
	// validated count the worker must not be flagged.
	a := model.MustNewAnswerSet(6, 1, 2)
	answers := []model.Label{1, 0, 1, 0, 1, 1}
	truth := []model.Label{1, 1, 0, 0, 1, 1}
	v := model.NewValidation(6)
	for o := 0; o < 6; o++ {
		if err := a.SetAnswer(o, 0, answers[o]); err != nil {
			t.Fatal(err)
		}
	}
	for o := 0; o < 4; o++ {
		v.Set(o, truth[o])
	}
	strict := &Detector{MinValidatedAnswers: 5}
	detection, err := strict.Detect(a, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if detection.Assessments[0].Faulty() {
		t.Fatal("worker assessed despite too few validated answers")
	}
	// With the default minimum the worker *is* (mis)flagged — that is exactly
	// the phenomenon the quarantine mechanism compensates for.
	loose := &Detector{}
	detection, err = loose.Detect(a, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !detection.Assessments[0].Spammer {
		t.Fatalf("expected worker B to look like a random spammer after 4 validations: %+v",
			detection.Assessments[0])
	}
}

func TestQuarantineMaskAndRestore(t *testing.T) {
	a, v := paperWorkersAnswerSet(t)
	det := &Detector{}
	detection, err := det.Detect(a, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuarantine()
	masked, restored := q.Apply(a, detection)
	if len(masked) != 2 || len(restored) != 0 {
		t.Fatalf("masked=%v restored=%v", masked, restored)
	}
	if got := q.MaskedWorkers(); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("masked workers = %v, want [0 1]", got)
	}
	// The spammers' answers are gone from the answer set.
	if a.Answer(0, 0) != model.NoLabel || a.Answer(0, 1) != model.NoLabel {
		t.Fatal("quarantined answers still present")
	}
	if a.Answer(0, 2) == model.NoLabel {
		t.Fatal("reliable worker's answers were removed")
	}
	// Re-applying the same detection is a no-op.
	masked, restored = q.Apply(a, detection)
	if len(masked) != 0 || len(restored) != 0 {
		t.Fatalf("re-apply masked=%v restored=%v", masked, restored)
	}
	// A detection that clears worker 0 restores its answers.
	cleared := Detection{Assessments: []WorkerAssessment{
		{Worker: 1, Spammer: true},
	}}
	masked, restored = q.Apply(a, cleared)
	if len(restored) != 1 || restored[0] != 0 {
		t.Fatalf("restored = %v, want [0]", restored)
	}
	if a.Answer(0, 0) == model.NoLabel {
		t.Fatal("restored answers missing")
	}
	// An empty detection brings everything back.
	q.Apply(a, Detection{})
	if len(q.MaskedWorkers()) != 0 {
		t.Fatal("quarantine not emptied")
	}
	if a.Answer(0, 1) == model.NoLabel {
		t.Fatal("an empty detection did not restore answers")
	}
}

func TestQuarantineMaskWorkerWithoutAnswers(t *testing.T) {
	a := model.MustNewAnswerSet(2, 2, 2)
	q := NewQuarantine()
	detection := Detection{Assessments: []WorkerAssessment{{Worker: 0, Spammer: true}}}
	masked, _ := q.Apply(a, detection)
	if len(masked) != 1 || !slices.Equal(q.MaskedWorkers(), []int{0}) {
		t.Fatal("worker without answers should still be recorded as masked")
	}
}

// TestQuarantineStashUpsert: answers ingested for a quarantined worker are
// kept sorted by object with one answer per object, so re-ingesting an
// object replaces its stashed answer, and restoring the worker puts back
// the latest labels.
func TestQuarantineStashUpsert(t *testing.T) {
	a := model.MustNewAnswerSet(6, 2, 2)
	for _, o := range []int{1, 4} {
		if err := a.SetAnswer(o, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	q := NewQuarantine()
	if q.Stash(0, model.ObjectAnswer{Object: 2, Label: 1}) {
		t.Fatal("stashed an answer of a worker that is not quarantined")
	}
	q.Apply(a, Detection{Assessments: []WorkerAssessment{{Worker: 0, Spammer: true}}})
	for _, ans := range []model.ObjectAnswer{{Object: 4, Label: 1}, {Object: 0, Label: 1}, {Object: 2, Label: 1}, {Object: 4, Label: 0}, {Object: 2, Label: 0}} {
		if !q.Stash(0, ans) {
			t.Fatalf("answer %+v of a quarantined worker was not stashed", ans)
		}
	}
	want := []model.ObjectAnswer{{Object: 0, Label: 1}, {Object: 1, Label: 0}, {Object: 2, Label: 0}, {Object: 4, Label: 0}}
	if got := q.Stashed(0); !slices.Equal(got, want) {
		t.Fatalf("stash = %v, want %v", got, want)
	}
	q.Apply(a, Detection{})
	if got := a.WorkerView(0); !slices.Equal(got, want) {
		t.Fatalf("restored answers = %v, want %v", got, want)
	}
}

// Property: quarantine apply/restore cycles never lose or duplicate answers.
func TestQuarantineRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 10, 5
		a := model.MustNewAnswerSet(n, k, 2)
		for o := 0; o < n; o++ {
			for w := 0; w < k; w++ {
				if rng.Float64() < 0.7 {
					if err := a.SetAnswer(o, w, model.Label(rng.Intn(2))); err != nil {
						return false
					}
				}
			}
		}
		orig := a.Clone()
		q := NewQuarantine()
		for round := 0; round < 4; round++ {
			var assessments []WorkerAssessment
			for w := 0; w < k; w++ {
				assessments = append(assessments, WorkerAssessment{Worker: w, Spammer: rng.Float64() < 0.5})
			}
			q.Apply(a, Detection{Assessments: assessments})
		}
		q.Apply(a, Detection{})
		for o := 0; o < n; o++ {
			for w := 0; w < k; w++ {
				if a.Answer(o, w) != orig.Answer(o, w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAssessWorkerMatchesDetect: the per-worker assessment entry point —
// the building block of incremental guidance scoring — returns exactly the
// worker's slot of a full Detect run, and validates its inputs.
func TestAssessWorkerMatchesDetect(t *testing.T) {
	a, v := paperWorkersAnswerSet(t)
	det := &Detector{}
	detection, err := det.Detect(a, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < a.NumWorkers(); w++ {
		single, err := det.AssessWorker(a, v, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		full := detection.Assessments[w]
		same := single.Worker == full.Worker &&
			single.ValidatedAnswers == full.ValidatedAnswers &&
			single.Spammer == full.Spammer && single.Sloppy == full.Sloppy &&
			(single.SpammerScore == full.SpammerScore ||
				(math.IsNaN(single.SpammerScore) && math.IsNaN(full.SpammerScore))) &&
			(single.ErrorRate == full.ErrorRate ||
				(math.IsNaN(single.ErrorRate) && math.IsNaN(full.ErrorRate)))
		if !same {
			t.Fatalf("worker %d: AssessWorker %+v != Detect slot %+v", w, single, full)
		}
	}
	if _, err := det.AssessWorker(nil, v, 0, nil); err == nil {
		t.Fatal("nil answer set accepted")
	}
	if _, err := det.AssessWorker(a, nil, 0, nil); err == nil {
		t.Fatal("nil validation accepted")
	}
	if _, err := det.AssessWorker(a, v, a.NumWorkers(), nil); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
}
