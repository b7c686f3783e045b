package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"crowdval"
	"crowdval/internal/cverr"
	"crowdval/internal/model"
)

// CreateSessionRequest is the body of POST /v1/sessions. Answers are given
// either as a dense objects × workers matrix of labels (-1 = no answer) or as
// a sparse answer list plus explicit dimensions.
type CreateSessionRequest struct {
	Name string `json:"name"`
	// Matrix is the dense form; NumLabels optionally fixes the label
	// alphabet (0 = infer from the largest label present).
	Matrix [][]int `json:"matrix,omitempty"`
	// Sparse form: dimensions plus an answer list.
	Objects   int           `json:"objects,omitempty"`
	Workers   int           `json:"workers,omitempty"`
	NumLabels int           `json:"numLabels,omitempty"`
	Answers   []AnswerJSON  `json:"answers,omitempty"`
	Options   SessionConfig `json:"options"`
}

// AnswerJSON is one crowd answer on the wire.
type AnswerJSON struct {
	Object int `json:"object"`
	Worker int `json:"worker"`
	Label  int `json:"label"`
}

// SessionConfig mirrors the crowdval session options that make sense over
// the wire.
type SessionConfig struct {
	Strategy           string  `json:"strategy,omitempty"`
	Budget             int     `json:"budget,omitempty"`
	CandidateLimit     int     `json:"candidateLimit,omitempty"`
	Seed               int64   `json:"seed,omitempty"`
	Parallelism        int     `json:"parallelism,omitempty"`
	ConfirmationPeriod int     `json:"confirmationPeriod,omitempty"`
	SpammerThreshold   float64 `json:"spammerThreshold,omitempty"`
	SloppyThreshold    float64 `json:"sloppyThreshold,omitempty"`
	UncertaintyGoal    float64 `json:"uncertaintyGoal,omitempty"`
	// Exact opts the session out of delta ingest and delta scoring
	// (WithExact): full warm-EM aggregation and full-EM candidate scoring,
	// and ingests that are never coalesced, so the session stays
	// bit-for-bit equal to a serial replay of its requests. Sessions are
	// delta by default.
	Exact bool `json:"exact,omitempty"`
	// Delta selects the delta-incremental ingest path (WithDeltaIngest). It
	// is the default, so it only matters together with Exact, where it
	// turns delta ingest back on.
	Delta bool `json:"delta,omitempty"`
	// DeltaScoring selects delta-accelerated guidance scoring
	// (WithDeltaScoring). It is the default, so it only matters together
	// with Exact, where it turns delta scoring back on.
	DeltaScoring bool `json:"deltaScoring,omitempty"`
	// CostBudget enables the monetary budget tracker (WithCostBudget): the
	// total budget b, charged θ per expert validation; further submissions
	// and selections are refused with ErrBudgetExhausted (HTTP 409) once it
	// is spent. The "budget" option above is the distinct effort *count*
	// limit. Zero leaves the session unbudgeted.
	CostBudget float64 `json:"costBudget,omitempty"`
	// CostTheta overrides the expert-to-crowd cost ratio θ; 0 keeps the
	// default (≈ 12.5).
	CostTheta float64 `json:"costTheta,omitempty"`
	// CostCrowdTime/CostTimePerValidation/CostTimeLimit parameterize the
	// optional completion-time deadline (§6.8): validations beyond what fits
	// in the time limit are infeasible even when money remains. A zero
	// CostTimeLimit disables the deadline.
	CostCrowdTime         float64 `json:"costCrowdTime,omitempty"`
	CostTimePerValidation float64 `json:"costTimePerValidation,omitempty"`
	CostTimeLimit         float64 `json:"costTimeLimit,omitempty"`
}

func (c SessionConfig) options() []crowdval.Option {
	var opts []crowdval.Option
	if c.Strategy != "" {
		opts = append(opts, crowdval.WithStrategy(crowdval.StrategyName(c.Strategy)))
	}
	if c.Budget > 0 {
		opts = append(opts, crowdval.WithBudget(c.Budget))
	}
	if c.CandidateLimit > 0 {
		opts = append(opts, crowdval.WithCandidateLimit(c.CandidateLimit))
	}
	if c.Seed != 0 {
		opts = append(opts, crowdval.WithSeed(c.Seed))
	}
	if c.Parallelism != 0 {
		opts = append(opts, crowdval.WithParallelism(c.Parallelism))
	}
	if c.ConfirmationPeriod > 0 {
		opts = append(opts, crowdval.WithConfirmationCheck(c.ConfirmationPeriod))
	}
	if c.SpammerThreshold != 0 || c.SloppyThreshold != 0 {
		opts = append(opts, crowdval.WithDetectionThresholds(c.SpammerThreshold, c.SloppyThreshold))
	}
	if c.UncertaintyGoal > 0 {
		opts = append(opts, crowdval.WithUncertaintyGoal(c.UncertaintyGoal))
	}
	if c.Exact {
		opts = append(opts, crowdval.WithExact())
	}
	if c.Delta {
		opts = append(opts, crowdval.WithDeltaIngest())
	}
	if c.DeltaScoring {
		opts = append(opts, crowdval.WithDeltaScoring())
	}
	if c.CostBudget > 0 {
		opts = append(opts, crowdval.WithCostBudget(crowdval.CostTracker{
			Theta:  c.CostTheta,
			Budget: c.CostBudget,
			Time: crowdval.CompletionTime{
				CrowdTime:         c.CostCrowdTime,
				TimePerValidation: c.CostTimePerValidation,
			},
			TimeLimit: c.CostTimeLimit,
		}))
	}
	return opts
}

// answerSet builds the AnswerSet described by the request.
func (req *CreateSessionRequest) answerSet() (*crowdval.AnswerSet, error) {
	if len(req.Matrix) > 0 {
		return crowdval.NewAnswerSetFromMatrix(req.Matrix, req.NumLabels)
	}
	return model.LoadAnswers(req.Objects, req.Workers, req.NumLabels, len(req.Answers), func(i int) crowdval.Answer {
		a := req.Answers[i]
		return crowdval.Answer{Object: a.Object, Worker: a.Worker, Label: crowdval.Label(a.Label)}
	})
}

// SessionSummary is the response of session creation and listing detail.
type SessionSummary struct {
	Name    string `json:"name"`
	Objects int    `json:"objects"`
	Workers int    `json:"workers"`
	Labels  int    `json:"labels"`
	Answers int    `json:"answers"`
}

// IngestRequest is the body of POST /v1/sessions/{name}/answers.
type IngestRequest struct {
	Answers []AnswerJSON `json:"answers"`
}

// IngestResponse reports the outcome of an ingestion.
type IngestResponse struct {
	Ingested    int `json:"ingested"`
	AnswerCount int `json:"answerCount"`
}

// ValidationJSON is one expert validation on the wire.
type ValidationJSON struct {
	Object int `json:"object"`
	Label  int `json:"label"`
}

// SubmitRequest is the body of POST /v1/sessions/{name}/validations. A
// single-element list integrates like Session.SubmitValidation; a longer one
// uses the transactional batch path (Session.SubmitValidations).
type SubmitRequest struct {
	Validations []ValidationJSON `json:"validations"`
}

// StepInfoJSON mirrors crowdval.StepInfo.
type StepInfoJSON struct {
	Object             int     `json:"object"`
	Label              int     `json:"label"`
	ErrorRate          float64 `json:"errorRate"`
	Uncertainty        float64 `json:"uncertainty"`
	FaultyWorkers      int     `json:"faultyWorkers"`
	QuarantinedWorkers []int   `json:"quarantinedWorkers,omitempty"`
	SuspectValidations []int   `json:"suspectValidations,omitempty"`
}

func stepInfoJSON(info crowdval.StepInfo) StepInfoJSON {
	return StepInfoJSON{
		Object:             info.Object,
		Label:              int(info.Label),
		ErrorRate:          info.ErrorRate,
		Uncertainty:        info.Uncertainty,
		FaultyWorkers:      info.FaultyWorkers,
		QuarantinedWorkers: info.QuarantinedWorkers,
		SuspectValidations: info.SuspectValidations,
	}
}

// SubmitResponse echoes one StepInfo per submitted validation, in input
// order.
type SubmitResponse struct {
	Steps []StepInfoJSON `json:"steps"`
}

// ScoredObjectJSON is one ranked candidate of a next-object ranking.
type ScoredObjectJSON struct {
	Object int     `json:"object"`
	Score  float64 `json:"score"`
}

// NextResponse is the body of GET /v1/sessions/{name}/next: the selected
// object plus the full ranking the strategy scored (?k= candidates, ranked
// by score descending; Object always equals Ranking[0].Object).
type NextResponse struct {
	Object  int                `json:"object"`
	Ranking []ScoredObjectJSON `json:"ranking"`
}

// GlobalCandidateJSON is one entry of the global cross-session ranking.
type GlobalCandidateJSON struct {
	Session     string  `json:"session"`
	Object      int     `json:"object"`
	Gain        float64 `json:"gain"`
	GainPerCost float64 `json:"gainPerCost"`
}

// GlobalNextResponse is the body of GET /v1/next: the global top-k next
// validations across all sessions of this node (or, through the router's
// fan-out, the whole fabric), ranked by expected information gain per unit
// cost descending with ties broken by session name then object ascending.
type GlobalNextResponse struct {
	Candidates []GlobalCandidateJSON `json:"candidates"`
}

// BudgetRequest is the body of POST /v1/sessions/{name}/budget: install or
// replace the session's monetary budget. Validations already spent are kept.
type BudgetRequest struct {
	// Budget is the total monetary budget b; it must be positive.
	Budget float64 `json:"budget"`
	// Theta overrides the expert-to-crowd cost ratio θ; 0 keeps the default.
	Theta float64 `json:"theta,omitempty"`
	// CrowdTime/TimePerValidation/TimeLimit parameterize the optional
	// completion-time deadline; a zero TimeLimit disables it.
	CrowdTime         float64 `json:"crowdTime,omitempty"`
	TimePerValidation float64 `json:"timePerValidation,omitempty"`
	TimeLimit         float64 `json:"timeLimit,omitempty"`
}

func (r BudgetRequest) tracker() crowdval.CostTracker {
	return crowdval.CostTracker{
		Theta:  r.Theta,
		Budget: r.Budget,
		Time: crowdval.CompletionTime{
			CrowdTime:         r.CrowdTime,
			TimePerValidation: r.TimePerValidation,
		},
		TimeLimit: r.TimeLimit,
	}
}

// BudgetResponse echoes the session's budget state after a POST .../budget.
type BudgetResponse struct {
	Theta               float64 `json:"theta"`
	Budget              float64 `json:"budget"`
	Spent               int     `json:"spent"`
	Remaining           float64 `json:"remaining"`
	FeasibleValidations int     `json:"feasibleValidations"`
	Exhausted           bool    `json:"exhausted"`
}

// ResultResponse is the body of GET /v1/sessions/{name}/result: the current
// best estimates of the session.
type ResultResponse struct {
	// Labels is the current best label per object (expert validations where
	// present, most probable label elsewhere).
	Labels []int `json:"labels"`
	// Validated lists the objects the expert has validated so far.
	Validated []int `json:"validated,omitempty"`
	// Probabilities is the per-object label distribution, included when the
	// request asked for it with ?probabilities=1.
	Probabilities [][]float64 `json:"probabilities,omitempty"`

	Uncertainty        float64 `json:"uncertainty"`
	EffortSpent        int     `json:"effortSpent"`
	EffortRatio        float64 `json:"effortRatio"`
	Done               bool    `json:"done"`
	QuarantinedWorkers []int   `json:"quarantinedWorkers,omitempty"`
	Objects            int     `json:"objects"`
	Workers            int     `json:"workers"`
	NumLabels          int     `json:"numLabels"`
	AnswerCount        int     `json:"answerCount"`
}

// ErrorResponse is the JSON body of every refusal a node or the router
// writes (WriteError). Code is the stable sentinel name from
// crowdval.ErrorName; every 4xx and every 503 except a cancelled request's
// carries one — malformed requests carry "ErrBadRequest". It is empty only
// for cancellations, deadlines and internal 500s. Owner accompanies code
// "ErrNotOwner" (HTTP 421): the address of the node that owns the session,
// so routers and clients retry there instead of guessing.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	Owner string `json:"owner,omitempty"`
}

// NotOwnerError rejects an operation on a session another node owns. It
// wraps cverr.ErrNotOwner (so errors.Is matching works across the taxonomy)
// and carries the owner's address into the 421 response body.
type NotOwnerError struct {
	Name  string
	Owner string
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("%v: session %q is owned by %s", cverr.ErrNotOwner, e.Name, e.Owner)
}

func (e *NotOwnerError) Unwrap() error { return cverr.ErrNotOwner }

// RetryAfterSeconds is the Retry-After value sent with HTTP 429 responses and
// with 503s carrying ErrDegraded or ErrUnavailable: shed ingests clear as
// soon as the session's queued batch drains, the health probe loop re-tests a
// degraded WAL every second (DefaultProbeInterval), and a router's peer
// breakers admit a probe within their back-off, so clients should back off
// briefly and retry rather than fail.
const RetryAfterSeconds = 1

// statusFor maps an error to its HTTP status: 404 for unknown sessions, 409
// for state conflicts (duplicate names or validations, exhausted budgets,
// finished sessions), 400 for malformed input (413 for a body over the cap),
// 429 for load shed under backpressure, 503 for degraded read-only mode and
// for no node able to serve, 504/503 for deadline and cancellation, 500
// otherwise.
func statusFor(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, cverr.ErrBadRequest) && errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, cverr.ErrSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, cverr.ErrSessionExists),
		errors.Is(err, cverr.ErrAlreadyValidated),
		errors.Is(err, cverr.ErrBudgetExhausted),
		errors.Is(err, cverr.ErrSessionDone):
		return http.StatusConflict
	case errors.Is(err, cverr.ErrBadRequest),
		errors.Is(err, cverr.ErrOutOfRange),
		errors.Is(err, cverr.ErrInvalidLabel),
		errors.Is(err, cverr.ErrDimensionMismatch),
		errors.Is(err, cverr.ErrRaggedMatrix),
		errors.Is(err, cverr.ErrUnknownStrategy),
		errors.Is(err, cverr.ErrNotValidated),
		errors.Is(err, cverr.ErrNilAnswerSet),
		errors.Is(err, cverr.ErrBadSnapshot),
		errors.Is(err, cverr.ErrSnapshotVersion):
		return http.StatusBadRequest
	case errors.Is(err, cverr.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, cverr.ErrNotOwner):
		return http.StatusMisdirectedRequest
	case errors.Is(err, cverr.ErrDegraded), errors.Is(err, cverr.ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// WriteError is the one way a refusal leaves a node or the router: the
// status statusFor maps err to, a JSON ErrorResponse naming err's sentinel,
// Retry-After on the retryable statuses, and the owner's address on a 421.
func WriteError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	body := ErrorResponse{Error: err.Error(), Code: cverr.Name(err)}
	if status == http.StatusTooManyRequests || errors.Is(err, cverr.ErrDegraded) || errors.Is(err, cverr.ErrUnavailable) {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	}
	var notOwner *NotOwnerError
	if errors.As(err, &notOwner) {
		body.Owner = notOwner.Owner
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// The body was just built from in-memory state; an encoding failure here
	// means the connection broke, which the client observes on its own.
	_ = enc.Encode(body)
}

func decodeJSON(r *http.Request, maxBytes int64, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("decoding request body: %w: %w", err, cverr.ErrBadRequest)
	}
	return nil
}
