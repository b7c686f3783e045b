package cverr

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// wrapError is a custom wrapper type for exercising errors.As across a chain
// that also contains fmt.Errorf wrapping.
type wrapError struct {
	code  int
	cause error
}

func (e *wrapError) Error() string { return fmt.Sprintf("wrap(%d): %v", e.code, e.cause) }
func (e *wrapError) Unwrap() error { return e.cause }

func TestEverySentinelIsRegistered(t *testing.T) {
	// The registry is the source of truth for Name; every sentinel defined in
	// this package must be in it exactly once, with a plausible identifier
	// and a distinct message.
	if len(named) == 0 {
		t.Fatal("no sentinels registered")
	}
	seenNames := make(map[string]bool)
	seenMsgs := make(map[string]bool)
	for _, entry := range named {
		if entry.err == nil {
			t.Fatalf("registered sentinel %q is nil", entry.name)
		}
		if !strings.HasPrefix(entry.name, "Err") {
			t.Errorf("sentinel name %q does not start with Err", entry.name)
		}
		if seenNames[entry.name] {
			t.Errorf("sentinel name %q registered twice", entry.name)
		}
		seenNames[entry.name] = true
		msg := entry.err.Error()
		if !strings.HasPrefix(msg, "crowdval: ") {
			t.Errorf("sentinel %s message %q lacks the crowdval prefix", entry.name, msg)
		}
		if seenMsgs[msg] {
			t.Errorf("sentinel %s reuses the message %q", entry.name, msg)
		}
		seenMsgs[msg] = true
	}
}

func TestNameForEveryExportedSentinel(t *testing.T) {
	// Pin the full public taxonomy: every exported sentinel maps to its own
	// identifier, bare and however deeply wrapped. A sentinel missing here
	// means the exported set and the registry drifted apart.
	cases := map[string]error{
		"ErrNilAnswerSet":      ErrNilAnswerSet,
		"ErrNilValidation":     ErrNilValidation,
		"ErrOutOfRange":        ErrOutOfRange,
		"ErrInvalidLabel":      ErrInvalidLabel,
		"ErrDimensionMismatch": ErrDimensionMismatch,
		"ErrRaggedMatrix":      ErrRaggedMatrix,
		"ErrSessionDone":       ErrSessionDone,
		"ErrBudgetExhausted":   ErrBudgetExhausted,
		"ErrAlreadyValidated":  ErrAlreadyValidated,
		"ErrNotValidated":      ErrNotValidated,
		"ErrUnknownStrategy":   ErrUnknownStrategy,
		"ErrNoCandidates":      ErrNoCandidates,
		"ErrNilExpert":         ErrNilExpert,
		"ErrNoGroundTruth":     ErrNoGroundTruth,
		"ErrBadSnapshot":       ErrBadSnapshot,
		"ErrSnapshotVersion":   ErrSnapshotVersion,
		"ErrSessionNotFound":   ErrSessionNotFound,
		"ErrSessionExists":     ErrSessionExists,
		"ErrOverloaded":        ErrOverloaded,
		"ErrNotOwner":          ErrNotOwner,
		"ErrDegraded":          ErrDegraded,
		"ErrBadRequest":        ErrBadRequest,
		"ErrUnavailable":       ErrUnavailable,
		"ErrBadWAL":            ErrBadWAL,
	}
	if len(cases) != len(named) {
		t.Fatalf("test covers %d sentinels, registry has %d — keep them in sync", len(cases), len(named))
	}
	for name, err := range cases {
		if got := Name(err); got != name {
			t.Errorf("Name(%s) = %q", name, got)
		}
		wrapped := fmt.Errorf("layer two: %w", fmt.Errorf("layer one: %w", err))
		if got := Name(wrapped); got != name {
			t.Errorf("Name(wrapped %s) = %q", name, got)
		}
	}
}

func TestNameNonSentinels(t *testing.T) {
	if got := Name(nil); got != "" {
		t.Errorf("Name(nil) = %q", got)
	}
	if got := Name(errors.New("unrelated")); got != "" {
		t.Errorf("Name(unrelated) = %q", got)
	}
	if got := Name(fmt.Errorf("wrapping nothing special: %w", errors.New("inner"))); got != "" {
		t.Errorf("Name(wrapped unrelated) = %q", got)
	}
}

func TestIsAndAsThroughMixedChains(t *testing.T) {
	// A chain mixing fmt.Errorf wrapping with a custom Unwrap type: errors.Is
	// still finds the sentinel at the bottom, errors.As still finds the
	// custom type in the middle, and Name reads through the whole stack.
	chain := fmt.Errorf("handler: %w", &wrapError{code: 42,
		cause: fmt.Errorf("engine: %w", ErrBudgetExhausted)})

	if !errors.Is(chain, ErrBudgetExhausted) {
		t.Fatal("errors.Is does not reach the sentinel through the chain")
	}
	if errors.Is(chain, ErrSessionDone) {
		t.Fatal("errors.Is matches an unrelated sentinel")
	}
	var wrap *wrapError
	if !errors.As(chain, &wrap) {
		t.Fatal("errors.As does not find the custom wrapper")
	}
	if wrap.code != 42 {
		t.Fatalf("errors.As found the wrong wrapper: %+v", wrap)
	}
	if got := Name(chain); got != "ErrBudgetExhausted" {
		t.Fatalf("Name(chain) = %q", got)
	}

	// Unwrap walks the chain layer by layer down to the sentinel.
	depth := 0
	for err := error(chain); err != nil; err = errors.Unwrap(err) {
		depth++
		if depth > 10 {
			t.Fatal("unwrap chain does not terminate")
		}
		if err == ErrBudgetExhausted && errors.Unwrap(err) != nil {
			t.Fatal("the sentinel itself must be the chain's end")
		}
	}
	if depth != 4 { // chain → wrapError → engine wrap → sentinel
		t.Fatalf("unwrap depth = %d, want 4", depth)
	}
}

func TestSentinelsAreDistinct(t *testing.T) {
	// No sentinel matches any other: errors.Is relationships between
	// different sentinels would silently merge error-handling branches.
	for i, a := range named {
		for j, b := range named {
			if (i == j) != errors.Is(a.err, b.err) {
				t.Errorf("errors.Is(%s, %s) = %v", a.name, b.name, i != j)
			}
		}
	}
}
