package crowdval

import (
	"crowdval/internal/cverr"
)

// Error taxonomy.
//
// Every error the public API returns either is one of the sentinel errors
// below or wraps one of them, so callers branch with errors.Is rather than by
// matching message strings:
//
//	_, err := session.SubmitValidation(object, label)
//	switch {
//	case errors.Is(err, crowdval.ErrBudgetExhausted):
//		// stop asking the expert, ship the current result
//	case errors.Is(err, crowdval.ErrAlreadyValidated):
//		// use session.Revise instead
//	}
//
// The sentinels group as follows:
//
//   - Input validation: ErrNilAnswerSet, ErrNilValidation, ErrOutOfRange,
//     ErrInvalidLabel, ErrDimensionMismatch, ErrRaggedMatrix.
//   - Session life cycle: ErrSessionDone, ErrBudgetExhausted,
//     ErrAlreadyValidated, ErrNotValidated, ErrUnknownStrategy,
//     ErrNoCandidates, ErrNilExpert, ErrNoGroundTruth.
//   - Snapshots: ErrBadSnapshot, ErrSnapshotVersion.
//   - Serving tier: ErrSessionNotFound, ErrSessionExists, ErrOverloaded,
//     ErrNotOwner, ErrDegraded, ErrBadRequest, ErrUnavailable. Every refusal
//     the HTTP serving tier and its router write is a JSON body carrying one
//     of these names (or any other sentinel) as its code.
//   - Durability: ErrBadWAL.
//
// Context cancellation is reported with the standard context.Canceled and
// context.DeadlineExceeded errors (possibly wrapped); match those with
// errors.Is too.
var (
	// ErrNilAnswerSet reports a nil answer set where one is required.
	ErrNilAnswerSet = cverr.ErrNilAnswerSet
	// ErrNilValidation reports a nil expert validation function where one is
	// required.
	ErrNilValidation = cverr.ErrNilValidation
	// ErrOutOfRange reports an object, worker or label index outside the
	// answer set's dimensions.
	ErrOutOfRange = cverr.ErrOutOfRange
	// ErrInvalidLabel reports a label that is not valid for the task.
	ErrInvalidLabel = cverr.ErrInvalidLabel
	// ErrDimensionMismatch reports components that disagree about the number
	// of objects, workers or labels (including attempts to shrink).
	ErrDimensionMismatch = cverr.ErrDimensionMismatch
	// ErrRaggedMatrix reports a dense answer matrix with rows of differing
	// lengths.
	ErrRaggedMatrix = cverr.ErrRaggedMatrix

	// ErrSessionDone reports a session that can make no further progress:
	// the goal is reached or every object is validated.
	ErrSessionDone = cverr.ErrSessionDone
	// ErrBudgetExhausted reports a validation that would exceed the
	// session's expert-effort budget.
	ErrBudgetExhausted = cverr.ErrBudgetExhausted
	// ErrAlreadyValidated reports a validation submitted for an object the
	// expert already validated; use Session.Revise instead.
	ErrAlreadyValidated = cverr.ErrAlreadyValidated
	// ErrNotValidated reports a revision of an object that has no
	// validation yet.
	ErrNotValidated = cverr.ErrNotValidated
	// ErrUnknownStrategy reports an unrecognized guidance strategy name.
	ErrUnknownStrategy = cverr.ErrUnknownStrategy
	// ErrNoCandidates reports a selection with no eligible objects.
	ErrNoCandidates = cverr.ErrNoCandidates
	// ErrNilExpert reports a batch run without an expert.
	ErrNilExpert = cverr.ErrNilExpert
	// ErrNoGroundTruth reports an oracle run that lacks a truth label for a
	// selected object.
	ErrNoGroundTruth = cverr.ErrNoGroundTruth

	// ErrBadSnapshot reports a structurally damaged session snapshot.
	ErrBadSnapshot = cverr.ErrBadSnapshot
	// ErrSnapshotVersion reports a snapshot from an unsupported encoding
	// version.
	ErrSnapshotVersion = cverr.ErrSnapshotVersion

	// ErrSessionNotFound reports a session name a serving tier does not
	// manage (see internal/server and the crowdval serve command).
	ErrSessionNotFound = cverr.ErrSessionNotFound
	// ErrSessionExists reports a session created under a name that is
	// already taken.
	ErrSessionExists = cverr.ErrSessionExists
	// ErrOverloaded reports an operation shed under serving-tier
	// backpressure (HTTP 429); the operation was not applied and can be
	// retried.
	ErrOverloaded = cverr.ErrOverloaded
	// ErrNotOwner reports an operation sent to a cluster node that does not
	// own the session (HTTP 421); the response names the owning node so the
	// request can be retried there (see internal/cluster and the crowdval
	// route command).
	ErrNotOwner = cverr.ErrNotOwner
	// ErrDegraded reports a mutation rejected because the session is serving
	// in degraded read-only mode after a durability failure (HTTP 503 with a
	// Retry-After header); reads keep serving, and the serving tier's probe
	// loop heals the session once its disk accepts durable writes again.
	ErrDegraded = cverr.ErrDegraded
	// ErrBadRequest reports a malformed request refused by a serving tier
	// before it touched a session: bad JSON or query parameters, an invalid
	// session name, a body over the size cap (HTTP 413; HTTP 400 otherwise).
	ErrBadRequest = cverr.ErrBadRequest
	// ErrUnavailable reports that no node could serve a request right now —
	// no fabric node answered the router, or the node is draining (HTTP 503
	// with a Retry-After header); retry after a short back-off.
	ErrUnavailable = cverr.ErrUnavailable

	// ErrBadWAL reports a structurally damaged write-ahead log or checkpoint
	// file (see internal/wal and the crowdval recover command).
	ErrBadWAL = cverr.ErrBadWAL
)

// ErrorName returns the exported identifier of the sentinel err wraps (e.g.
// "ErrBudgetExhausted"), or "" when err wraps none of them. Serving tiers use
// it to turn errors into stable machine-readable codes for logs, metrics and
// process exit messages. The mapping is registered where the sentinels are
// defined, so it cannot drift when the taxonomy grows.
func ErrorName(err error) string {
	return cverr.Name(err)
}
