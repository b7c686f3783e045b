package crowdval

import (
	"fmt"

	"crowdval/internal/core"
	"crowdval/internal/cost"
	"crowdval/internal/cverr"
	"crowdval/internal/guidance"
	"crowdval/internal/model"
	"crowdval/internal/snapshot"
)

// Answer is one crowd answer for live ingestion: Worker answered Object with
// Label. See Session.AddAnswers.
type Answer = model.Answer

// ValidationInput is one element of a validation batch: the expert asserts
// that Label is the correct answer for Object. See Session.SubmitValidations.
type ValidationInput = core.ValidationInput

// Snapshot serializes the full session state — options, crowd answers,
// expert validations, quarantine, probabilistic state, bookkeeping and the
// state of the stochastic components — into a compact, versioned binary
// encoding. The round trip is exact: a session restored with ResumeSession
// (in this process or another one) produces bit-for-bit the same NextObject
// selections, aggregation results and StepInfo values as the snapshotted
// session would have. A serving tier can therefore park millions of idle
// sessions in a store and resume each one on whichever process the next
// expert interaction lands.
func (s *Session) Snapshot() ([]byte, error) {
	return snapshot.Encode(s.snapshotState()), nil
}

// snapshotState captures the full session state in the codec's serializable
// form. The strategy state (pseudo-random stream, hybrid weight, last
// branch) is read under the engine's selection lock so a snapshot taken
// while selections are served concurrently (both run under a serving tier's
// read lock) captures a consistent stream position.
func (s *Session) snapshotState() *snapshot.State {
	engine := s.engine
	answers := engine.Answers()
	n, k, m := answers.NumObjects(), answers.NumWorkers(), answers.NumLabels()

	st := &snapshot.State{
		Strategy:              string(s.cfg.strategy),
		Budget:                int64(s.cfg.budget),
		CandidateLimit:        int64(s.cfg.candidateLimit),
		Parallel:              s.cfg.parallel,
		Parallelism:           int64(s.cfg.parallelism),
		ConfirmationPeriod:    int64(s.cfg.confirmationPeriod),
		SpammerThreshold:      s.cfg.spammerThreshold,
		SloppyThreshold:       s.cfg.sloppyThreshold,
		UncertaintyGoal:       s.cfg.uncertaintyGoal,
		Seed:                  s.cfg.seed,
		DeltaEnabled:          s.cfg.deltaEnabled,
		DeltaMaxDirtyFraction: s.cfg.deltaMaxDirtyFraction,
		DeltaScoring:          s.cfg.deltaScoring,
		NumObjects:            int64(n),
		NumWorkers:            int64(k),
		NumLabels:             int64(m),
		ObjectNames:           answers.ObjectNames,
		WorkerNames:           answers.WorkerNames,
		LabelNames:            answers.LabelNames,
		Iteration:             int64(engine.Iteration()),
		EffortSpent:           int64(engine.EffortSpent()),
	}
	if budget := engine.CostBudget(); budget != nil {
		st.BudgetEnabled = true
		st.BudgetTheta = budget.Theta
		st.BudgetTotal = budget.Budget
		st.BudgetSpent = int64(budget.Spent)
		st.BudgetCrowdTime = budget.Time.CrowdTime
		st.BudgetTimePerValidation = budget.Time.TimePerValidation
		st.BudgetTimeLimit = budget.TimeLimit
	}
	engine.WithSelectionLock(func() {
		st.RNGState = s.src.State()
		st.LastWorkerDriven = engine.LastWorkerDriven()
		if s.hybrid != nil {
			st.HybridWeight = s.hybrid.Weight()
		}
	})

	count := engine.AnswerCount()
	st.AnswerObjects = make([]int64, 0, count)
	st.AnswerWorkers = make([]int64, 0, count)
	st.AnswerLabels = make([]int64, 0, count)
	engine.EachAnswer(func(a Answer) {
		st.AnswerObjects = append(st.AnswerObjects, int64(a.Object))
		st.AnswerWorkers = append(st.AnswerWorkers, int64(a.Worker))
		st.AnswerLabels = append(st.AnswerLabels, int64(a.Label))
	})

	validation := engine.Validation()
	st.Validation = make([]int64, n)
	for o := 0; o < n; o++ {
		st.Validation[o] = int64(validation.Get(o))
	}
	for _, w := range engine.QuarantinedWorkers() {
		st.Quarantined = append(st.Quarantined, int64(w))
	}
	confirmed := engine.ConfirmedValidations()
	for o := 0; o < n; o++ {
		if l, ok := confirmed[o]; ok {
			st.ConfirmedObjects = append(st.ConfirmedObjects, int64(o))
			st.ConfirmedLabels = append(st.ConfirmedLabels, int64(l))
		}
	}

	probSet := engine.ProbSet()
	st.Assignment = make([]float64, 0, n*m)
	for o := 0; o < n; o++ {
		st.Assignment = append(st.Assignment, probSet.Assignment.Row(o)...)
	}
	st.Confusions = make([]float64, 0, k*m*m)
	for _, c := range probSet.Confusions {
		st.Confusions = append(st.Confusions, c.Dense()...)
	}

	for _, rec := range engine.History() {
		st.History = append(st.History, encodeHistory(rec))
	}
	return st
}

// ResumeSession restores a session from a Snapshot. The restored session is
// bit-for-bit equivalent to the snapshotted one: same pending guidance
// decisions, same aggregation state, same pseudo-random stream.
//
// Options may be passed to override runtime knobs on the new process —
// WithParallelism, WithParallelScoring and WithCandidateLimit are safe and do
// not change results (sharding is bitwise neutral). Overriding behavioral
// options (strategy, budget, thresholds, goal) is honoured but naturally
// breaks equivalence with the original session; WithSeed has no effect
// because the pseudo-random stream continues from the snapshotted state.
func ResumeSession(data []byte, opts ...Option) (*Session, error) {
	st, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	return resumeFromState(st, opts)
}

// RankingMemo carries a session's memoized rankings across a park, so the
// session resumed from the park's snapshot serves its next NextObjects
// without re-ranking. It is opaque and lives in memory only: the snapshot
// stays pure state, and a memo never reaches disk or another process.
//
// A serving tier that parks cold sessions takes the memo with
// TakeRankingMemo in the same exclusive section that takes the Snapshot it
// parks, keeps it beside the parked session, and hands it to the session
// ResumeSession restores from exactly that snapshot with AdoptRankingMemo. Any other transition of the parked session — deletion,
// replacement, a failed resume — must drop the memo. The zero value is the
// empty memo.
type RankingMemo struct{ memo *core.RankingMemo }

// TakeRankingMemo detaches the rankings the session has memoized for its
// current state; the session keeps none of them and re-ranks on its next
// selection.
func (s *Session) TakeRankingMemo() RankingMemo {
	return RankingMemo{s.engine.TakeRankingMemo()}
}

// AdoptRankingMemo installs a memo taken from the session this one was
// resumed from, before any mutation, and reports whether the session adopted
// it. A memo that does not match the session's state, shape and scoring
// options is refused, and so is the empty memo.
func (s *Session) AdoptRankingMemo(m RankingMemo) bool {
	return s.engine.InstallRankingMemo(m.memo)
}

// Bytes returns the memory the memo's rankings hold.
func (m RankingMemo) Bytes() int64 { return m.memo.Bytes() }

func resumeFromState(st *snapshot.State, opts []Option) (*Session, error) {
	n, k, m := int(st.NumObjects), int(st.NumWorkers), int(st.NumLabels)
	if len(st.AnswerObjects) != len(st.AnswerWorkers) || len(st.AnswerObjects) != len(st.AnswerLabels) {
		return nil, fmt.Errorf("%w: inconsistent answer arrays", cverr.ErrBadSnapshot)
	}
	answers, err := model.LoadAnswers(n, k, m, len(st.AnswerObjects), func(i int) Answer {
		return Answer{Object: int(st.AnswerObjects[i]), Worker: int(st.AnswerWorkers[i]), Label: Label(st.AnswerLabels[i])}
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", cverr.ErrBadSnapshot, err)
	}
	answers.ObjectNames = st.ObjectNames
	answers.WorkerNames = st.WorkerNames
	answers.LabelNames = st.LabelNames

	if len(st.Validation) != n {
		return nil, fmt.Errorf("%w: validation covers %d objects, answer set has %d",
			cverr.ErrBadSnapshot, len(st.Validation), n)
	}
	validation := model.NewValidation(n)
	for o, l := range st.Validation {
		if l != int64(NoLabel) && !Label(l).Valid(m) {
			return nil, fmt.Errorf("%w: validation label %d out of range", cverr.ErrBadSnapshot, l)
		}
		validation.Set(o, Label(l))
	}

	if len(st.Assignment) != n*m {
		return nil, fmt.Errorf("%w: assignment has %d entries, want %d", cverr.ErrBadSnapshot, len(st.Assignment), n*m)
	}
	assignment := model.NewAssignmentMatrix(n, m)
	for o := 0; o < n; o++ {
		assignment.SetRow(o, st.Assignment[o*m:(o+1)*m])
	}
	if len(st.Confusions) != k*m*m {
		return nil, fmt.Errorf("%w: confusions have %d entries, want %d", cverr.ErrBadSnapshot, len(st.Confusions), k*m*m)
	}
	confusions := make([]*model.ConfusionMatrix, k)
	for w := 0; w < k; w++ {
		c := model.NewConfusionMatrix(m)
		base := w * m * m
		for l := 0; l < m; l++ {
			for l2 := 0; l2 < m; l2++ {
				c.Set(Label(l), Label(l2), st.Confusions[base+l*m+l2])
			}
		}
		confusions[w] = c
	}

	restored := &core.RestoredState{
		Validation:           validation,
		Assignment:           assignment,
		Confusions:           confusions,
		Iteration:            int(st.Iteration),
		EffortSpent:          int(st.EffortSpent),
		LastWorkerDriven:     st.LastWorkerDriven,
		ConfirmedValidations: make(map[int]Label, len(st.ConfirmedObjects)),
	}
	for _, w := range st.Quarantined {
		restored.Quarantined = append(restored.Quarantined, int(w))
	}
	if len(st.ConfirmedObjects) != len(st.ConfirmedLabels) {
		return nil, fmt.Errorf("%w: inconsistent confirmed-validation arrays", cverr.ErrBadSnapshot)
	}
	for i, o := range st.ConfirmedObjects {
		restored.ConfirmedValidations[int(o)] = Label(st.ConfirmedLabels[i])
	}
	for _, h := range st.History {
		restored.History = append(restored.History, decodeHistory(h))
	}

	cfg := defaultSessionConfig()
	cfg.strategy = StrategyName(st.Strategy)
	cfg.budget = int(st.Budget)
	cfg.candidateLimit = int(st.CandidateLimit)
	cfg.parallel = st.Parallel
	cfg.parallelism = int(st.Parallelism)
	cfg.confirmationPeriod = int(st.ConfirmationPeriod)
	cfg.spammerThreshold = st.SpammerThreshold
	cfg.sloppyThreshold = st.SloppyThreshold
	cfg.uncertaintyGoal = st.UncertaintyGoal
	cfg.seed = st.Seed
	cfg.deltaEnabled = st.DeltaEnabled
	cfg.deltaMaxDirtyFraction = st.DeltaMaxDirtyFraction
	cfg.deltaScoring = st.DeltaScoring
	if st.BudgetEnabled {
		cfg.costBudget = &cost.Tracker{
			Theta:  st.BudgetTheta,
			Budget: st.BudgetTotal,
			Spent:  int(st.BudgetSpent),
			Time: cost.CompletionTime{
				CrowdTime:         st.BudgetCrowdTime,
				TimePerValidation: st.BudgetTimePerValidation,
			},
			TimeLimit: st.BudgetTimeLimit,
		}
	}
	cfg.apply(opts)

	session, err := newSession(answers, cfg, restored)
	if err != nil {
		return nil, err
	}
	// Continue the exact pseudo-random stream and hybrid weighting of the
	// snapshotted session.
	session.src.SetState(st.RNGState)
	if session.hybrid != nil {
		session.hybrid.SetWeight(st.HybridWeight)
	}
	return session, nil
}

func encodeHistory(rec core.IterationRecord) snapshot.HistoryRecord {
	h := snapshot.HistoryRecord{
		Iteration:        int64(rec.Iteration),
		Object:           int64(rec.Object),
		Label:            int64(rec.Label),
		WorkerDrivenUsed: rec.WorkerDrivenUsed,
		ErrorRate:        rec.ErrorRate,
		HybridWeight:     rec.HybridWeight,
		Uncertainty:      rec.Uncertainty,
		FaultyWorkers:    int64(rec.FaultyWorkers),
		EMIterations:     int64(rec.EMIterations),
	}
	for _, w := range rec.MaskedWorkers {
		h.Masked = append(h.Masked, int64(w))
	}
	for _, w := range rec.RestoredWorkers {
		h.Restored = append(h.Restored, int64(w))
	}
	for _, o := range rec.RevisedObjects {
		h.Revised = append(h.Revised, int64(o))
	}
	for _, s := range rec.ConfirmationSuspects {
		h.SuspectObjects = append(h.SuspectObjects, int64(s.Object))
		h.SuspectExpert = append(h.SuspectExpert, int64(s.ExpertLabel))
		h.SuspectCrowd = append(h.SuspectCrowd, int64(s.CrowdLabel))
	}
	return h
}

func decodeHistory(h snapshot.HistoryRecord) core.IterationRecord {
	rec := core.IterationRecord{
		Iteration:        int(h.Iteration),
		Object:           int(h.Object),
		Label:            Label(h.Label),
		WorkerDrivenUsed: h.WorkerDrivenUsed,
		ErrorRate:        h.ErrorRate,
		HybridWeight:     h.HybridWeight,
		Uncertainty:      h.Uncertainty,
		FaultyWorkers:    int(h.FaultyWorkers),
		EMIterations:     int(h.EMIterations),
	}
	for _, w := range h.Masked {
		rec.MaskedWorkers = append(rec.MaskedWorkers, int(w))
	}
	for _, w := range h.Restored {
		rec.RestoredWorkers = append(rec.RestoredWorkers, int(w))
	}
	for _, o := range h.Revised {
		rec.RevisedObjects = append(rec.RevisedObjects, int(o))
	}
	for i := range h.SuspectObjects {
		s := guidance.SuspectValidation{Object: int(h.SuspectObjects[i])}
		if i < len(h.SuspectExpert) {
			s.ExpertLabel = Label(h.SuspectExpert[i])
		}
		if i < len(h.SuspectCrowd) {
			s.CrowdLabel = Label(h.SuspectCrowd[i])
		}
		rec.ConfirmationSuspects = append(rec.ConfirmationSuspects, s)
	}
	return rec
}
