package crowdval

import (
	"crowdval/internal/core"
	"crowdval/internal/cost"
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
// form: the options and the budget here, everything else from the engine.
func (s *Session) snapshotState() *snapshot.State {
	st := &snapshot.State{
		Strategy:           string(s.cfg.strategy),
		Budget:             int64(s.cfg.budget),
		CandidateLimit:     int64(s.cfg.candidateLimit),
		Parallelism:        int64(s.cfg.parallelism),
		ConfirmationPeriod: int64(s.cfg.confirmationPeriod),
		SpammerThreshold:   s.cfg.spammerThreshold,
		SloppyThreshold:    s.cfg.sloppyThreshold,
		UncertaintyGoal:    s.cfg.uncertaintyGoal,
		Seed:               s.cfg.seed,
		DeltaEnabled:       s.cfg.deltaEnabled,
		DeltaScoring:       s.cfg.deltaScoring,
	}
	if budget := s.engine.CostBudget(); budget != nil {
		st.BudgetEnabled = true
		st.BudgetTheta = budget.Theta
		st.BudgetTotal = budget.Budget
		st.BudgetSpent = int64(budget.Spent)
		st.BudgetCrowdTime = budget.Time.CrowdTime
		st.BudgetTimePerValidation = budget.Time.TimePerValidation
		st.BudgetTimeLimit = budget.TimeLimit
	}
	s.engine.Snapshot(st, s.src.State)
	return st
}

// ResumeSession restores a session from a Snapshot. The restored session is
// bit-for-bit equivalent to the snapshotted one: same pending guidance
// decisions, same aggregation state, same pseudo-random stream.
//
// The snapshot is untrusted input. snapshot.Decode checks it once, before
// anything is allocated from its header: its dimensions against the lengths
// of its arrays, and every object, worker and label in range. A snapshot
// that fails the check is refused with ErrBadSnapshot (ErrSnapshotVersion
// for an unknown encoding version); the engine then adopts the decoded
// state without checking or copying it again.
//
// Options may be passed to override runtime knobs on the new process —
// WithParallelism is safe and does not change results (sharding is bitwise
// neutral). Overriding behavioral options (strategy, budget, candidate
// limit, thresholds, goal) is honoured but naturally breaks equivalence with
// the original session; WithSeed has no effect because the pseudo-random
// stream continues from the snapshotted state.
//
// The snapshot's parallel-scoring flag and delta dirty fraction are ignored:
// a resumed session scores its candidates serially, which gives the same
// rankings, and its delta ingest falls back to the full sweep once more
// than 25% of the objects are dirty (aggregation.DefaultMaxDirtyFraction).
func ResumeSession(data []byte, opts ...Option) (*Session, error) {
	st, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	cfg := defaultSessionConfig()
	cfg.strategy = StrategyName(st.Strategy)
	cfg.budget = int(st.Budget)
	cfg.candidateLimit = int(st.CandidateLimit)
	cfg.parallelism = int(st.Parallelism)
	cfg.confirmationPeriod = int(st.ConfirmationPeriod)
	cfg.spammerThreshold = st.SpammerThreshold
	cfg.sloppyThreshold = st.SloppyThreshold
	cfg.uncertaintyGoal = st.UncertaintyGoal
	cfg.seed = st.Seed
	cfg.deltaEnabled = st.DeltaEnabled
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

	session, err := newSession(nil, cfg, st)
	if err != nil {
		return nil, err
	}
	// Continue the exact pseudo-random stream of the snapshotted session.
	session.src.SetState(st.RNGState)
	return session, nil
}

// RankingMemo carries a session's memoized rankings across a park, so the
// session resumed from the park's snapshot serves its next NextObjects
// without re-ranking. It is opaque and lives in memory only: the snapshot
// stays pure state, and a memo never reaches disk or another process.
//
// A serving tier that parks cold sessions takes the memo with
// TakeRankingMemo in the same exclusive section that takes the Snapshot it
// parks, keeps it beside the parked session, and hands it to the session
// ResumeSession restores from exactly that snapshot with AdoptRankingMemo.
// Until then, Top answers the parked session's reads the memo certifies.
// Any other transition of the parked session — deletion, replacement, a
// failed resume — must drop the memo. The zero value is the empty memo.
type RankingMemo struct {
	memo      *core.RankingMemo
	budget    CostTracker
	hasBudget bool
}

// TakeRankingMemo detaches the rankings the session has memoized for its
// current state; the session keeps none of them and re-ranks on its next
// selection.
func (s *Session) TakeRankingMemo() RankingMemo {
	budget, hasBudget := s.CostBudget()
	return RankingMemo{s.engine.TakeRankingMemo(), budget, hasBudget}
}

// Top returns the ranking NextObjects(k) would return on the session resumed
// from the memo's snapshot with the memo adopted, without resuming it: ok
// reports whether the memo certifies that answer. It never does for a hybrid
// session, whose selections draw pseudo-random state, nor for a session
// whose next selection would fail (goal reached, every object validated, a
// budget spent); those must resume to answer.
func (m RankingMemo) Top(k int) (ranked []ScoredObject, ok bool) { return m.memo.Top(k) }

// CostBudget returns the monetary budget the session held when the memo was
// taken (see Session.CostBudget).
func (m RankingMemo) CostBudget() (CostTracker, bool) { return m.budget, m.hasBudget }

// AdoptRankingMemo installs a memo taken from the session this one was
// resumed from, before any mutation, and reports whether the session adopted
// it. A memo that does not match the session's state, shape and scoring
// options is refused, and so is the empty memo.
func (s *Session) AdoptRankingMemo(m RankingMemo) bool {
	return s.engine.InstallRankingMemo(m.memo)
}

// Bytes returns the memory the memo's rankings hold.
func (m RankingMemo) Bytes() int64 { return m.memo.Bytes() }
