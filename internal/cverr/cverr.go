// Package cverr defines the sentinel errors of the crowdval library.
//
// The sentinels live in a leaf package so that every layer — the data model,
// the aggregators, the guidance strategies, the validation engine and the
// public facade — can wrap them with fmt.Errorf("...: %w", ...) while callers
// anywhere in the stack match them with errors.Is. The root crowdval package
// re-exports each sentinel under the same name; downstream applications are
// expected to use those re-exports and never import this package directly.
//
// Each sentinel registers its exported identifier at definition time, so
// Name can map any wrapped error back to a stable machine-readable code
// without a second hand-maintained table that could drift.
package cverr

import "errors"

// named pairs a registered sentinel with its exported identifier, in
// registration order (Name scans it deterministically).
var named []struct {
	err  error
	name string
}

// reg creates a sentinel and records its exported identifier.
func reg(name, msg string) error {
	err := errors.New(msg)
	named = append(named, struct {
		err  error
		name string
	}{err, name})
	return err
}

// Name returns the exported identifier of the sentinel err wraps (e.g.
// "ErrBudgetExhausted"), or "" when err wraps none of them.
func Name(err error) string {
	if err == nil {
		return ""
	}
	for _, e := range named {
		if errors.Is(err, e.err) {
			return e.name
		}
	}
	return ""
}

// Data-model errors.
var (
	// ErrNilAnswerSet is returned when an operation receives a nil answer set.
	ErrNilAnswerSet = reg("ErrNilAnswerSet", "crowdval: nil answer set")
	// ErrNilValidation is returned when an operation that requires an expert
	// validation function receives nil.
	ErrNilValidation = reg("ErrNilValidation", "crowdval: nil validation")
	// ErrOutOfRange is returned when an object, worker or label index lies
	// outside the dimensions of the answer set.
	ErrOutOfRange = reg("ErrOutOfRange", "crowdval: index out of range")
	// ErrInvalidLabel is returned when a label is not valid for the task
	// (negative, NoLabel where a real label is required, or >= numLabels).
	ErrInvalidLabel = reg("ErrInvalidLabel", "crowdval: invalid label")
	// ErrDimensionMismatch is returned when two model components disagree
	// about the number of objects, workers or labels, or when an answer set
	// would be created with (or shrunk to) non-positive dimensions.
	ErrDimensionMismatch = reg("ErrDimensionMismatch", "crowdval: dimension mismatch")
	// ErrRaggedMatrix is returned when a dense answer matrix has rows of
	// differing lengths.
	ErrRaggedMatrix = reg("ErrRaggedMatrix", "crowdval: ragged answer matrix")
)

// Session life-cycle errors.
var (
	// ErrSessionDone is returned when a validation session can make no
	// further progress: the goal is reached or every object is validated.
	ErrSessionDone = reg("ErrSessionDone", "crowdval: session is done")
	// ErrBudgetExhausted is returned when an expert validation would exceed
	// the session's effort budget.
	ErrBudgetExhausted = reg("ErrBudgetExhausted", "crowdval: expert budget exhausted")
	// ErrAlreadyValidated is returned when a validation is submitted for an
	// object the expert already validated; use Revise instead.
	ErrAlreadyValidated = reg("ErrAlreadyValidated", "crowdval: object already validated")
	// ErrNotValidated is returned when a revision targets an object that has
	// no validation yet.
	ErrNotValidated = reg("ErrNotValidated", "crowdval: object not validated")
	// ErrUnknownStrategy is returned when a session is configured with a
	// guidance strategy name the library does not know.
	ErrUnknownStrategy = reg("ErrUnknownStrategy", "crowdval: unknown guidance strategy")
	// ErrNoCandidates is returned when a guidance strategy is asked to select
	// an object but no candidate is available.
	ErrNoCandidates = reg("ErrNoCandidates", "crowdval: no candidate objects to select from")
	// ErrNilExpert is returned when a batch run is started without an expert.
	ErrNilExpert = reg("ErrNilExpert", "crowdval: nil expert")
	// ErrNoGroundTruth is returned when an oracle-driven run lacks a ground
	// truth label for a selected object.
	ErrNoGroundTruth = reg("ErrNoGroundTruth", "crowdval: no ground truth for object")
)

// Snapshot errors.
var (
	// ErrBadSnapshot is returned when a session snapshot is malformed.
	ErrBadSnapshot = reg("ErrBadSnapshot", "crowdval: malformed session snapshot")
	// ErrSnapshotVersion is returned when a session snapshot was written by
	// an unsupported (newer or unknown) encoding version.
	ErrSnapshotVersion = reg("ErrSnapshotVersion", "crowdval: unsupported snapshot version")
)

// Serving-tier errors.
var (
	// ErrSessionNotFound is returned when a serving tier is asked about a
	// session name it does not manage.
	ErrSessionNotFound = reg("ErrSessionNotFound", "crowdval: session not found")
	// ErrSessionExists is returned when a session is created under a name
	// that is already taken.
	ErrSessionExists = reg("ErrSessionExists", "crowdval: session already exists")
	// ErrOverloaded is returned when a serving tier sheds an operation under
	// backpressure (e.g. a session's ingest queue is at its configured
	// bound). The operation was not applied and can be retried.
	ErrOverloaded = reg("ErrOverloaded", "crowdval: server overloaded")
	// ErrNotOwner is returned when a cluster node receives an operation for a
	// session another node owns (HTTP 421). The response carries the owner's
	// address so routers and clients can retry against the right node.
	ErrNotOwner = reg("ErrNotOwner", "crowdval: session owned by another node")
	// ErrDegraded is returned when a session is serving in degraded read-only
	// mode after a durability failure (WAL append/fsync or checkpoint error):
	// mutations are rejected (HTTP 503 + Retry-After) until the background
	// probe confirms the disk accepts durable writes again and heals the
	// session; reads keep serving throughout.
	ErrDegraded = reg("ErrDegraded", "crowdval: session degraded to read-only")
	// ErrBadRequest is returned when a serving tier refuses a malformed
	// request before any session is touched: undecodable or unknown-field
	// JSON, an invalid session name or query parameter, a body over the size
	// cap (HTTP 413), a request a router cannot route (HTTP 400 otherwise).
	ErrBadRequest = reg("ErrBadRequest", "crowdval: bad request")
	// ErrUnavailable is returned when no node can serve a request right now:
	// a router found no fabric node that answered, or a node refuses inbound
	// transfers while it drains (HTTP 503 + Retry-After).
	ErrUnavailable = reg("ErrUnavailable", "crowdval: service unavailable")
)

// Durability errors.
var (
	// ErrBadWAL is returned when a write-ahead log or checkpoint file is
	// structurally damaged: bad magic or version, a torn or corrupt record,
	// a checksum mismatch.
	ErrBadWAL = reg("ErrBadWAL", "crowdval: malformed write-ahead log")
)
