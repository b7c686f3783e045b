package snapshot

import (
	"bytes"
	"errors"
	"testing"

	"crowdval/internal/cverr"
)

// typedCodecError asserts the decoder's entire error surface: every rejection
// wraps exactly one of the two snapshot sentinels, never an untyped error and
// never a panic (the fuzz driver catches panics on its own).
func typedCodecError(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, cverr.ErrBadSnapshot) && !errors.Is(err, cverr.ErrSnapshotVersion) {
		t.Fatalf("decode rejected input with an untyped error: %v", err)
	}
}

// fuzzSeeds returns a small spread of valid encodings: the full sample state,
// a minimal state, and one with empty collections — distinct shapes for the
// mutator to start from. The same seeds are checked into
// testdata/fuzz/FuzzDecode as seed-v5-*, beside seed-*, their version-4
// encodings.
func fuzzSeeds() [][]byte {
	minimal := &State{NumObjects: 1, NumWorkers: 1, NumLabels: 2,
		Validation: []int64{-1}, Assignment: []float64{0.5, 0.5},
		Confusions: []float64{0.5, 0.5, 0.5, 0.5}}
	noNames := sampleState()
	noNames.ObjectNames, noNames.WorkerNames, noNames.LabelNames = nil, nil, nil
	noNames.History = nil
	return [][]byte{
		Encode(sampleState()),
		Encode(minimal),
		Encode(noNames),
	}
}

// FuzzDecode feeds mutated snapshots to the byte-slice decoder. The contract:
// never panic; on rejection return an error wrapping ErrBadSnapshot or
// ErrSnapshotVersion; on acceptance the decoded state must re-encode to a
// stable fixed point (encode→decode→encode reproduces the bytes — the
// encoding is canonical up to non-canonical bool bytes, over-long uvarints
// and the older versions' layouts in the input).
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			typedCodecError(t, err)
			return
		}

		// Fixed point: one re-encoding canonicalizes, after which the round
		// trip must be exact. (Encode(s) may differ from data only where the
		// input used non-canonical bytes for booleans.)
		canonical := Encode(s)
		s2, err := Decode(canonical)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(Encode(s2), canonical) {
			t.Fatal("encode→decode→encode is not a fixed point")
		}
	})
}

// budgetFuzzSeeds returns encodings whose version-4 budget tail the mutator
// starts from: an enabled budget mid-campaign, a deadline-bound budget, a
// disabled tail, and a version-3 image with no tail at all (cut from the
// version-4 fixture). The same seeds are checked into
// testdata/fuzz/FuzzDecodeBudget as seed-v5-*, beside seed-*, the
// version-4 encodings of the first three.
func budgetFuzzSeeds(t testing.TB) [][]byte {
	spent := sampleState()
	spent.BudgetEnabled = true
	spent.BudgetTheta = 12.5
	spent.BudgetTotal = 312.5
	spent.BudgetSpent = 11
	deadline := sampleState()
	deadline.BudgetEnabled = true
	deadline.BudgetTotal = 1000
	deadline.BudgetCrowdTime = 2
	deadline.BudgetTimePerValidation = 0.5
	deadline.BudgetTimeLimit = 10
	return [][]byte{
		Encode(spent),
		Encode(deadline),
		Encode(sampleState()),
		olderImage(t, 3),
	}
}

// FuzzDecodeBudget focuses the mutator on the version-4 budget tail: the
// seeds differ from each other almost exclusively in the tail bytes, so
// mutations concentrate there. The contract extends FuzzDecode's — never
// panic, typed errors, canonical fixed point — with
// the version gate: an accepted pre-v4 image must decode every budget field
// as zero, since older snapshots carry no budget state to misread.
func FuzzDecodeBudget(f *testing.F) {
	for _, seed := range budgetFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			typedCodecError(t, err)
			return
		}
		if len(data) >= 6 {
			if version := uint16(data[4]) | uint16(data[5])<<8; version < 4 {
				if s.BudgetEnabled || s.BudgetTheta != 0 || s.BudgetTotal != 0 || s.BudgetSpent != 0 ||
					s.BudgetCrowdTime != 0 || s.BudgetTimePerValidation != 0 || s.BudgetTimeLimit != 0 {
					t.Fatalf("version-%d snapshot decoded non-zero budget fields: %+v", version, s)
				}
			}
		}
		canonical := Encode(s)
		s2, err := Decode(canonical)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(Encode(s2), canonical) {
			t.Fatal("encode→decode→encode is not a fixed point")
		}
	})
}
