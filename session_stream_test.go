package crowdval

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
)

// spammyCrowd generates a crowd with a heavy spammer presence, so that the
// detection/quarantine machinery is exercised.
func spammyCrowd(t testing.TB, objects, workers int, seed int64) *Dataset {
	t.Helper()
	d, err := GenerateCrowd(CrowdConfig{
		NumObjects: objects, NumWorkers: workers, NumLabels: 2,
		Mix:            WorkerMix{Normal: 0.5, RandomSpammer: 0.3, UniformSpammer: 0.2},
		NormalAccuracy: 0.85,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// consensusCrowd generates a well-behaved crowd with strong agreement, so
// that aggregation fixed points are stable and parity assertions are exact.
func consensusCrowd(t testing.TB, objects, workers int, seed int64) *Dataset {
	t.Helper()
	d, err := GenerateCrowd(CrowdConfig{
		NumObjects: objects, NumWorkers: workers, NumLabels: 2,
		Mix:            WorkerMix{Normal: 1},
		NormalAccuracy: 0.85,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sessionStep records one NextObject/SubmitValidation round trip.
type sessionStep struct {
	Object int
	Info   StepInfo
}

// driveSteps performs n guided validation steps against the ground truth.
func driveSteps(t *testing.T, s *Session, truth DeterministicAssignment, n int) []sessionStep {
	t.Helper()
	steps := make([]sessionStep, 0, n)
	for i := 0; i < n; i++ {
		object, err := s.NextObject()
		if err != nil {
			t.Fatalf("step %d: NextObject: %v", i, err)
		}
		info, err := s.SubmitValidation(object, truth[object])
		if err != nil {
			t.Fatalf("step %d: SubmitValidation(%d): %v", i, object, err)
		}
		steps = append(steps, sessionStep{Object: object, Info: info})
	}
	return steps
}

func snapshotResumeOpts(strategy StrategyName) []Option {
	return []Option{
		WithStrategy(strategy),
		WithBudget(20),
		WithCandidateLimit(5),
		WithSeed(11),
		WithConfirmationCheck(7),
	}
}

// TestSnapshotResumeBitForBit asserts the headline snapshot property: a
// session parked mid-run and resumed from its snapshot produces exactly the
// same NextObject selections, StepInfo values and aggregation results as the
// session that never stopped — including the hybrid roulette RNG state and
// the quarantined-workers set.
func TestSnapshotResumeBitForBit(t *testing.T) {
	for _, strategy := range []StrategyName{StrategyHybrid, StrategyWorker} {
		t.Run(string(strategy), func(t *testing.T) {
			d := spammyCrowd(t, 25, 10, 7)

			// Uninterrupted reference run.
			ref, err := NewSession(d.Answers, snapshotResumeOpts(strategy)...)
			if err != nil {
				t.Fatal(err)
			}
			refSteps := driveSteps(t, ref, d.Truth, 20)

			// Second run: park after 10 steps, resume from bytes, continue.
			first, err := NewSession(d.Answers, snapshotResumeOpts(strategy)...)
			if err != nil {
				t.Fatal(err)
			}
			firstSteps := driveSteps(t, first, d.Truth, 10)
			if !reflect.DeepEqual(firstSteps, refSteps[:10]) {
				t.Fatal("sessions with identical options diverged before the snapshot")
			}
			data, err := first.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeSession(data)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.EffortSpent() != first.EffortSpent() {
				t.Fatalf("resumed effort = %d, want %d", resumed.EffortSpent(), first.EffortSpent())
			}
			if !reflect.DeepEqual(resumed.QuarantinedWorkers(), first.QuarantinedWorkers()) {
				t.Fatalf("resumed quarantine %v != %v", resumed.QuarantinedWorkers(), first.QuarantinedWorkers())
			}
			resumedSteps := driveSteps(t, resumed, d.Truth, 10)
			if !reflect.DeepEqual(resumedSteps, refSteps[10:]) {
				t.Fatalf("resumed steps diverged:\n got  %+v\n want %+v", resumedSteps, refSteps[10:])
			}
			if !reflect.DeepEqual(resumed.Result(), ref.Result()) {
				t.Fatal("final assignments differ")
			}
			if resumed.Uncertainty() != ref.Uncertainty() {
				t.Fatalf("final uncertainty %v != %v (not bit-for-bit)", resumed.Uncertainty(), ref.Uncertainty())
			}
			for o := 0; o < d.Answers.NumObjects(); o++ {
				if resumed.Validation().Get(o) != ref.Validation().Get(o) {
					t.Fatalf("validation of object %d differs", o)
				}
			}

			// The faulty-worker machinery must actually have fired, otherwise
			// this test would not cover the quarantine state.
			flagged := false
			for _, s := range refSteps {
				if s.Info.FaultyWorkers > 0 {
					flagged = true
					break
				}
			}
			if !flagged {
				t.Fatal("no faulty workers detected; pick a different seed to keep the test meaningful")
			}
			if strategy == StrategyWorker && len(ref.QuarantinedWorkers()) == 0 {
				t.Fatal("worker-driven run never quarantined anyone; pick a different seed")
			}
		})
	}
}

// TestSnapshotBetweenSelectAndSubmit parks a session at the most delicate
// point — after the guidance selected an object but before the expert
// answered — and asserts the resumed session integrates the answer exactly
// like the uninterrupted one.
func TestSnapshotBetweenSelectAndSubmit(t *testing.T) {
	d := spammyCrowd(t, 20, 8, 5)
	opts := snapshotResumeOpts(StrategyHybrid)

	ref, err := NewSession(d.Answers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, ref, d.Truth, 8)
	refObject, err := ref.NextObject()
	if err != nil {
		t.Fatal(err)
	}
	refInfo, err := ref.SubmitValidation(refObject, d.Truth[refObject])
	if err != nil {
		t.Fatal(err)
	}

	other, err := NewSession(d.Answers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, other, d.Truth, 8)
	otherObject, err := other.NextObject()
	if err != nil {
		t.Fatal(err)
	}
	if otherObject != refObject {
		t.Fatalf("selection diverged: %d != %d", otherObject, refObject)
	}
	data, err := other.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSession(data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := resumed.SubmitValidation(otherObject, d.Truth[otherObject])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info, refInfo) {
		t.Fatalf("step info after mid-step resume differs:\n got  %+v\n want %+v", info, refInfo)
	}
}

// TestAddAnswersMatchesRebuild asserts the live-ingestion parity: folding new
// answers (including previously unseen objects and workers) into a running
// session via the i-EM warm start agrees with building a fresh session over
// the union of all answers.
func TestAddAnswersMatchesRebuild(t *testing.T) {
	d := consensusCrowd(t, 30, 8, 9)
	const baseObjects, baseWorkers = 20, 6

	base, err := NewAnswerSet(baseObjects, baseWorkers, 2)
	if err != nil {
		t.Fatal(err)
	}
	var extra []Answer
	for o := 0; o < d.Answers.NumObjects(); o++ {
		for _, wa := range d.Answers.ObjectView(o) {
			if o < baseObjects && wa.Worker < baseWorkers {
				if err := base.SetAnswer(o, wa.Worker, wa.Label); err != nil {
					t.Fatal(err)
				}
			} else {
				extra = append(extra, Answer{Object: o, Worker: wa.Worker, Label: wa.Label})
			}
		}
	}
	if len(extra) == 0 {
		t.Fatal("no extra answers to ingest")
	}

	opts := []Option{WithStrategy(StrategyBaseline), WithSeed(1)}
	live, err := NewSession(base, opts...)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewSession(d.Answers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// Both sessions hold the same expert validations before ingestion.
	for o := 0; o < 3; o++ {
		if _, err := live.SubmitValidation(o, d.Truth[o]); err != nil {
			t.Fatal(err)
		}
		if _, err := scratch.SubmitValidation(o, d.Truth[o]); err != nil {
			t.Fatal(err)
		}
	}

	if err := live.AddAnswers(context.Background(), extra); err != nil {
		t.Fatal(err)
	}

	liveResult, scratchResult := live.Result(), scratch.Result()
	if len(liveResult) != len(scratchResult) {
		t.Fatalf("result lengths differ: %d != %d", len(liveResult), len(scratchResult))
	}
	for o := range liveResult {
		if liveResult[o] != scratchResult[o] {
			t.Fatalf("label of object %d differs after ingestion: %d != %d", o, liveResult[o], scratchResult[o])
		}
	}
	if dU := math.Abs(live.Uncertainty() - scratch.Uncertainty()); dU > 0.05 {
		t.Fatalf("uncertainty differs by %v (live %v, scratch %v)", dU, live.Uncertainty(), scratch.Uncertainty())
	}
	if diff := live.ProbabilisticResult().Assignment.MaxAbsDiff(scratch.ProbabilisticResult().Assignment); diff > 0.02 {
		t.Fatalf("assignment matrices differ by %v", diff)
	}
	if err := live.ProbabilisticResult().Validate(); err != nil {
		t.Fatalf("ingested session state inconsistent: %v", err)
	}
	// The ingested session keeps working as a session.
	if _, err := live.NextObject(); err != nil {
		t.Fatalf("NextObject after ingestion: %v", err)
	}
}

// TestAddAnswersGrowsQuarantinedWorkerStash asserts that answers of a
// quarantined worker go to the quarantine stash, not into the aggregation.
func TestAddAnswersStashesQuarantinedWorkers(t *testing.T) {
	d := spammyCrowd(t, 25, 10, 7)
	s, err := NewSession(d.Answers, WithStrategy(StrategyWorker), WithBudget(20), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, s, d.Truth, 15)
	quarantined := s.QuarantinedWorkers()
	if len(quarantined) == 0 {
		t.Fatal("no worker quarantined: the pinned crowd (seed 7) and session seed (11) must quarantine one")
	}
	w := quarantined[0]
	workingBefore := s.ProbabilisticResult().Answers.AnswerCount()
	if err := s.AddAnswers(context.Background(), []Answer{{Object: 0, Worker: w, Label: 0}}); err != nil {
		t.Fatal(err)
	}
	if got := s.ProbabilisticResult().Answers.Answer(0, w); got != NoLabel {
		t.Fatalf("quarantined worker's new answer leaked into the working set: %v", got)
	}
	if s.ProbabilisticResult().Answers.AnswerCount() != workingBefore {
		t.Fatal("working answer count changed for a quarantined worker's answer")
	}
}

// TestSubmitValidationsBatchVsSequential asserts the batch integration parity
// against one-at-a-time submissions.
func TestSubmitValidationsBatchVsSequential(t *testing.T) {
	d := consensusCrowd(t, 25, 8, 13)
	opts := []Option{WithStrategy(StrategyBaseline), WithSeed(1)}

	sequential, err := NewSession(d.Answers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewSession(d.Answers, opts...)
	if err != nil {
		t.Fatal(err)
	}

	objects := []int{2, 5, 7, 11}
	var inputs []ValidationInput
	for _, o := range objects {
		if _, err := sequential.SubmitValidation(o, d.Truth[o]); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, ValidationInput{Object: o, Label: d.Truth[o]})
	}
	infos, err := batch.SubmitValidations(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(inputs) {
		t.Fatalf("got %d step infos for %d inputs", len(infos), len(inputs))
	}
	for i, info := range infos {
		if info.Object != inputs[i].Object || info.Label != inputs[i].Label {
			t.Fatalf("info %d echoes %d/%d, want %d/%d", i, info.Object, info.Label, inputs[i].Object, inputs[i].Label)
		}
		if info.ErrorRate < 0 || info.ErrorRate > 1 {
			t.Fatalf("error rate out of range: %v", info.ErrorRate)
		}
	}
	if infos[len(infos)-1].Uncertainty != batch.Uncertainty() {
		t.Fatal("batch step info does not reflect the post-batch uncertainty")
	}

	if sequential.EffortSpent() != batch.EffortSpent() {
		t.Fatalf("effort differs: sequential %d, batch %d", sequential.EffortSpent(), batch.EffortSpent())
	}
	for o := 0; o < d.Answers.NumObjects(); o++ {
		if sequential.Validation().Get(o) != batch.Validation().Get(o) {
			t.Fatalf("validation of object %d differs", o)
		}
	}
	seqResult, batchResult := sequential.Result(), batch.Result()
	for o := range seqResult {
		if seqResult[o] != batchResult[o] {
			t.Fatalf("label of object %d differs: sequential %d, batch %d", o, seqResult[o], batchResult[o])
		}
	}
	if dU := math.Abs(sequential.Uncertainty() - batch.Uncertainty()); dU > 0.05 {
		t.Fatalf("uncertainty differs by %v", dU)
	}

	// A batch is transactional: a duplicate object fails the whole batch and
	// rolls back.
	before := batch.EffortSpent()
	if _, err := batch.SubmitValidations(context.Background(), []ValidationInput{
		{Object: 20, Label: d.Truth[20]},
		{Object: 20, Label: d.Truth[20]},
	}); !errors.Is(err, ErrAlreadyValidated) {
		t.Fatalf("duplicate in batch: %v", err)
	}
	if batch.EffortSpent() != before || batch.Validation().Validated(20) {
		t.Fatal("failed batch was not rolled back")
	}
}

// TestContextCancellationLeavesStateIntact submits with an already-cancelled
// context and asserts the session is bit-for-bit unaffected: a control
// session that never saw the cancelled call stays in lockstep.
func TestContextCancellationLeavesStateIntact(t *testing.T) {
	d := spammyCrowd(t, 20, 8, 3)
	opts := []Option{WithStrategy(StrategyHybrid), WithBudget(10), WithCandidateLimit(4), WithSeed(3)}

	control, err := NewSession(d.Answers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	session, err := NewSession(d.Answers, opts...)
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	co, err := control.NextObject()
	if err != nil {
		t.Fatal(err)
	}
	so, err := session.NextObject()
	if err != nil {
		t.Fatal(err)
	}
	if so != co {
		t.Fatalf("selection diverged before cancellation: %d != %d", so, co)
	}

	// Cancelled submission fails with context.Canceled and changes nothing.
	if _, err := session.SubmitValidationContext(cancelled, so, d.Truth[so]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v", err)
	}
	if session.Validation().Validated(so) || session.EffortSpent() != 0 {
		t.Fatal("cancelled submission left state behind")
	}
	// Cancelled selection fails too, without consuming guidance state.
	if _, err := session.NextObjectContext(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled select: %v", err)
	}
	// Cancelled batch rolls back.
	if _, err := session.SubmitValidations(cancelled, []ValidationInput{{Object: so, Label: d.Truth[so]}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: %v", err)
	}
	if session.Validation().Count() != 0 {
		t.Fatal("cancelled batch left validations behind")
	}

	// The session then continues in lockstep with the control.
	ci, err := control.SubmitValidation(co, d.Truth[co])
	if err != nil {
		t.Fatal(err)
	}
	si, err := session.SubmitValidation(so, d.Truth[so])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(si, ci) {
		t.Fatalf("state diverged after cancellation:\n got  %+v\n want %+v", si, ci)
	}
	controlSteps := driveSteps(t, control, d.Truth, 4)
	sessionSteps := driveSteps(t, session, d.Truth, 4)
	if !reflect.DeepEqual(sessionSteps, controlSteps) {
		t.Fatal("sessions diverged after recovering from cancellation")
	}
}

// pollCancelCtx is a context that cancels itself on its k-th Err poll. The
// engine polls its context at fixed points — once per iteration of the delta
// frontier phase, at every shard boundary of a full sweep, between stages —
// so on a serial session a given k lands at the same point of the same
// aggregation on every run. k = 0 never cancels and only counts the polls.
type pollCancelCtx struct {
	context.Context
	mu    sync.Mutex
	k     int
	polls int
	done  chan struct{}
}

func newPollCancelCtx(k int) *pollCancelCtx {
	return &pollCancelCtx{Context: context.Background(), k: k, done: make(chan struct{})}
}

func (c *pollCancelCtx) Done() <-chan struct{} { return c.done }

func (c *pollCancelCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.k == 0 || c.polls < c.k {
		return nil
	}
	if c.polls == c.k {
		close(c.done)
	}
	return context.Canceled
}

// TestCancelMidEM cancels a validation at every poll of its context in
// turn — on this crowd the spam assessment, the delta frontier iteration and
// the settle sweep's E- and M-steps — and asserts each cancellation surfaces
// as context.Canceled with the session untouched, and that a resubmission
// then takes the step an uncancelled session takes.
func TestCancelMidEM(t *testing.T) {
	d, err := GenerateCrowd(CrowdConfig{
		NumObjects: 3000, NumWorkers: 60, NumLabels: 2,
		AnswersPerObject: 12, NormalAccuracy: 0.6, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	newSession := func() (*Session, int) {
		s, err := NewSession(d.Answers, WithStrategy(StrategyBaseline), WithBudget(50), WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		object, err := s.NextObject()
		if err != nil {
			t.Fatal(err)
		}
		return s, object
	}

	control, object := newSession()
	counter := newPollCancelCtx(0)
	want, err := control.SubmitValidationContext(counter, object, d.Truth[object])
	if err != nil {
		t.Fatal(err)
	}
	polls := counter.polls
	t.Logf("an uncancelled validation polls its context %d times", polls)
	// The delta frontier phase polls once per iteration and each settle
	// sweep at least four times (its E- and M-step, each on entry and exit).
	if polls < 5 {
		t.Fatalf("an uncancelled validation polled its context %d times, want at least 5", polls)
	}
	for k := 1; k <= polls; k++ {
		s, o := newSession()
		if o != object {
			t.Fatalf("fresh session selected %d, control %d", o, object)
		}
		ctx := newPollCancelCtx(k)
		if _, err := s.SubmitValidationContext(ctx, o, d.Truth[o]); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: error %v, want context.Canceled", k, polls, err)
		}
		if s.Validation().Validated(o) || s.EffortSpent() != 0 {
			t.Fatalf("cancellation at poll %d of %d corrupted the session state", k, polls)
		}
		got, err := s.SubmitValidation(o, d.Truth[o])
		if err != nil {
			t.Fatalf("resubmission after cancellation at poll %d: %v", k, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after cancellation at poll %d, resubmission gave %+v, uncancelled session %+v", k, got, want)
		}
	}
}

// TestNewSessionWithContext asserts the initial cold aggregation honours
// WithContext — the knob the CLI's -timeout relies on to bound session
// creation, not just the validation loop.
func TestNewSessionWithContext(t *testing.T) {
	d := consensusCrowd(t, 10, 5, 1)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewSession(d.Answers, WithContext(cancelled)); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewSession with cancelled context: %v", err)
	}
	// A live context leaves construction untouched.
	if _, err := NewSession(d.Answers, WithContext(context.Background())); err != nil {
		t.Fatal(err)
	}
}

// TestTypedErrors pins the error taxonomy: every failure mode surfaces a
// sentinel matched by errors.Is and named by ErrorName.
func TestTypedErrors(t *testing.T) {
	// Matrix constructors.
	if _, err := NewAnswerSetFromMatrix(nil, 0); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("empty matrix: %v", err)
	}
	if _, err := NewAnswerSetFromMatrix([][]int{{0, 1}, {0}}, 0); !errors.Is(err, ErrRaggedMatrix) {
		t.Fatalf("ragged matrix: %v", err)
	}
	_, err := NewAnswerSetFromMatrix([][]int{{0, 3}}, 2)
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("small explicit numLabels: %v", err)
	}
	for _, want := range []string{"numLabels 2", "label 3"} {
		if !containsString(err.Error(), want) {
			t.Fatalf("error %q does not describe the problem (missing %q)", err, want)
		}
	}

	// Session construction.
	if _, err := NewSession(nil); !errors.Is(err, ErrNilAnswerSet) {
		t.Fatalf("nil answers: %v", err)
	}
	d := consensusCrowd(t, 6, 5, 1)
	if _, err := NewSession(d.Answers, WithStrategy("bogus")); !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("unknown strategy: %v", err)
	}

	// Session life cycle.
	s, err := NewSession(d.Answers, WithStrategy(StrategyBaseline), WithBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitValidation(-1, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("object out of range: %v", err)
	}
	if _, err := s.SubmitValidation(0, Label(99)); !errors.Is(err, ErrInvalidLabel) {
		t.Fatalf("invalid label: %v", err)
	}
	if err := s.Revise(0, 0); !errors.Is(err, ErrNotValidated) {
		t.Fatalf("revise unvalidated: %v", err)
	}
	if _, err := s.SubmitValidation(0, d.Truth[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitValidation(0, d.Truth[0]); !errors.Is(err, ErrAlreadyValidated) {
		t.Fatalf("duplicate validation: %v", err)
	}
	if _, err := s.SubmitValidation(1, d.Truth[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NextObject(); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("select beyond budget: %v", err)
	}
	if _, err := s.SubmitValidation(2, d.Truth[2]); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("submit beyond budget: %v", err)
	}

	full, err := NewSession(d.Answers, WithStrategy(StrategyBaseline))
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < d.Answers.NumObjects(); o++ {
		if _, err := full.SubmitValidation(o, d.Truth[o]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := full.NextObject(); !errors.Is(err, ErrSessionDone) {
		t.Fatalf("select when done: %v", err)
	}

	// Snapshots.
	if _, err := ResumeSession([]byte("junk")); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("junk snapshot: %v", err)
	}

	// ErrorName gives stable machine-readable codes.
	for _, tc := range []struct {
		err  error
		name string
	}{
		{ErrBudgetExhausted, "ErrBudgetExhausted"},
		{ErrSessionDone, "ErrSessionDone"},
		{ErrAlreadyValidated, "ErrAlreadyValidated"},
		{ErrBadSnapshot, "ErrBadSnapshot"},
	} {
		if got := ErrorName(tc.err); got != tc.name {
			t.Fatalf("ErrorName(%v) = %q, want %q", tc.err, got, tc.name)
		}
	}
	if got := ErrorName(errors.New("unrelated")); got != "" {
		t.Fatalf("ErrorName(unrelated) = %q, want \"\"", got)
	}
}

func containsString(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
