package snapshot

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"crowdval/internal/cverr"
)

func sampleState() *State {
	return &State{
		Strategy:           "hybrid",
		Budget:             25,
		CandidateLimit:     8,
		Parallel:           true,
		Parallelism:        4,
		ConfirmationPeriod: 5,
		SpammerThreshold:   0.2,
		SloppyThreshold:    0.8,
		UncertaintyGoal:    1.5,
		Seed:               -7,
		RNGState:           0xdeadbeefcafef00d,
		HybridWeight:       0.371,
		LastWorkerDriven:   true,
		NumObjects:         3,
		NumWorkers:         2,
		NumLabels:          2,
		AnswerObjects:      []int64{0, 0, 1, 2},
		AnswerWorkers:      []int64{0, 1, 0, 1},
		AnswerLabels:       []int64{0, 1, 1, 0},
		ObjectNames:        []string{"a", "b", "c"},
		LabelNames:         []string{"yes", "no"},
		Validation:         []int64{-1, 1, -1},
		Quarantined:        []int64{1},
		ConfirmedObjects:   []int64{1},
		ConfirmedLabels:    []int64{1},
		Assignment:         []float64{0.25, 0.75, 0, 1, 0.5, 0.5},
		Confusions:         []float64{0.9, 0.1, 0.2, 0.8, 0.5, 0.5, 0.5, 0.5},
		Iteration:          2,
		EffortSpent:        3,
		History: []HistoryRecord{
			{
				Iteration: 1, Object: 1, Label: 1, WorkerDrivenUsed: true,
				ErrorRate: 0.125, HybridWeight: 0.3, Uncertainty: 1.75,
				FaultyWorkers: 1, EMIterations: 4,
				Masked: []int64{1}, Revised: []int64{0},
				SuspectObjects: []int64{0}, SuspectExpert: []int64{1}, SuspectCrowd: []int64{0},
			},
			{Iteration: 2, Object: 0, Label: 0},
		},
	}
}

func TestRoundTripDeltaFields(t *testing.T) {
	want := sampleState()
	want.DeltaEnabled = true
	want.DeltaMaxDirtyFraction = 0.125
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatal(err)
	}
	if !got.DeltaEnabled || got.DeltaMaxDirtyFraction != 0.125 {
		t.Fatalf("delta fields lost in round trip: %+v", got)
	}
}

// Byte lengths of the per-version tails, used by the compat tests to derive
// an older-version image from a current Encode: the version-2 tail is 1 bool
// + 1 float, the version-3 tail 1 bool, the version-4 tail 1 bool + 5 floats
// + 1 int64.
const (
	v2TailLen = 1 + 8
	v3TailLen = 1
	v4TailLen = 1 + 5*8 + 8
)

// TestDecodeVersion1Compat: a version-1 snapshot (no tails) still decodes,
// with the delta configuration and the budget state reading as disabled.
func TestDecodeVersion1Compat(t *testing.T) {
	want := sampleState()
	data := Encode(want)
	// Strip the version-4, -3 and -2 tails and rewrite the version field to
	// 1; everything before the tails is the v1 encoding.
	v1 := append([]byte(nil), data[:len(data)-(v2TailLen+v3TailLen+v4TailLen)]...)
	v1[4], v1[5] = 1, 0 // little-endian uint16 version
	got, err := Decode(v1)
	if err != nil {
		t.Fatalf("version-1 snapshot rejected: %v", err)
	}
	if got.DeltaEnabled || got.DeltaMaxDirtyFraction != 0 || got.DeltaScoring {
		t.Fatalf("version-1 snapshot decoded non-zero delta fields: %+v", got)
	}
	if got.BudgetEnabled || got.BudgetTheta != 0 || got.BudgetTotal != 0 || got.BudgetSpent != 0 {
		t.Fatalf("version-1 snapshot decoded non-zero budget fields: %+v", got)
	}
	got.DeltaEnabled = want.DeltaEnabled
	got.DeltaMaxDirtyFraction = want.DeltaMaxDirtyFraction
	got.DeltaScoring = want.DeltaScoring
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("version-1 decode mismatch:\n got  %+v\n want %+v", got, want)
	}
}

// TestDecodeVersion2Compat: a version-2 snapshot (delta-ingest tail, no
// delta-scoring or budget tail) still decodes, with delta scoring and the
// budget state reading as disabled.
func TestDecodeVersion2Compat(t *testing.T) {
	want := sampleState()
	want.DeltaEnabled = true
	want.DeltaMaxDirtyFraction = 0.125
	want.DeltaScoring = true
	data := Encode(want)
	v2 := append([]byte(nil), data[:len(data)-(v3TailLen+v4TailLen)]...)
	v2[4], v2[5] = 2, 0 // little-endian uint16 version
	got, err := Decode(v2)
	if err != nil {
		t.Fatalf("version-2 snapshot rejected: %v", err)
	}
	if got.DeltaScoring {
		t.Fatal("version-2 snapshot decoded delta scoring as enabled")
	}
	if got.BudgetEnabled {
		t.Fatal("version-2 snapshot decoded a budget as enabled")
	}
	if !got.DeltaEnabled || got.DeltaMaxDirtyFraction != 0.125 {
		t.Fatalf("version-2 delta-ingest fields lost: %+v", got)
	}
}

// TestDecodeVersion3Compat: a version-3 snapshot (delta tails, no budget
// tail) still decodes, with the budget state reading as disabled and every
// pre-v4 field intact.
func TestDecodeVersion3Compat(t *testing.T) {
	want := sampleState()
	want.DeltaEnabled = true
	want.DeltaMaxDirtyFraction = 0.125
	want.DeltaScoring = true
	want.BudgetEnabled = true
	want.BudgetTheta = 12.5
	want.BudgetTotal = 500
	want.BudgetSpent = 7
	data := Encode(want)
	v3 := append([]byte(nil), data[:len(data)-v4TailLen]...)
	v3[4], v3[5] = 3, 0 // little-endian uint16 version
	got, err := Decode(v3)
	if err != nil {
		t.Fatalf("version-3 snapshot rejected: %v", err)
	}
	if got.BudgetEnabled || got.BudgetTheta != 0 || got.BudgetTotal != 0 || got.BudgetSpent != 0 ||
		got.BudgetCrowdTime != 0 || got.BudgetTimePerValidation != 0 || got.BudgetTimeLimit != 0 {
		t.Fatalf("version-3 snapshot decoded non-zero budget fields: %+v", got)
	}
	want.BudgetEnabled, want.BudgetTheta, want.BudgetTotal, want.BudgetSpent = false, 0, 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("version-3 decode mismatch:\n got  %+v\n want %+v", got, want)
	}
}

// TestRoundTripBudgetFields: the version-4 budget tail survives a round trip
// bit for bit.
func TestRoundTripBudgetFields(t *testing.T) {
	want := sampleState()
	want.BudgetEnabled = true
	want.BudgetTheta = 12.5
	want.BudgetTotal = 312.5
	want.BudgetSpent = 11
	want.BudgetCrowdTime = 2.25
	want.BudgetTimePerValidation = 0.5
	want.BudgetTimeLimit = 40
	data := Encode(want)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("budget round trip mismatch:\n got  %+v\n want %+v", got, want)
	}
	if again := Encode(got); !bytes.Equal(again, data) {
		t.Fatal("re-encoding the decoded budget state is not bit-for-bit identical")
	}
}

func TestRoundTrip(t *testing.T) {
	want := sampleState()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, want)
	}
}

func TestRoundTripPreservesFloatBits(t *testing.T) {
	s := sampleState()
	// Values that lose precision in decimal encodings survive a binary one.
	s.Assignment = []float64{1.0 / 3, math.Nextafter(0.5, 1), 5e-324, 0.1 + 0.2, 1, 0}
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Assignment {
		if math.Float64bits(got.Assignment[i]) != math.Float64bits(v) {
			t.Fatalf("assignment[%d]: bits differ: %x != %x", i, math.Float64bits(got.Assignment[i]), math.Float64bits(v))
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	data := Encode(sampleState())

	if _, err := Decode(nil); !errors.Is(err, cverr.ErrBadSnapshot) {
		t.Fatalf("nil input: %v", err)
	}
	if _, err := Decode([]byte("not a snapshot")); !errors.Is(err, cverr.ErrBadSnapshot) {
		t.Fatalf("garbage input: %v", err)
	}
	if _, err := Decode(data[:len(data)/2]); !errors.Is(err, cverr.ErrBadSnapshot) {
		t.Fatalf("truncated input: %v", err)
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0)); !errors.Is(err, cverr.ErrBadSnapshot) {
		t.Fatalf("trailing bytes: %v", err)
	}

	// Future version is rejected with the dedicated sentinel.
	bad := append([]byte(nil), data...)
	bad[4], bad[5] = 0xff, 0xff
	if _, err := Decode(bad); !errors.Is(err, cverr.ErrSnapshotVersion) {
		t.Fatalf("future version: %v", err)
	}
}

func TestDecodeRejectsHugeLengths(t *testing.T) {
	// A corrupted length prefix must not cause a giant allocation; flipping
	// the first answer-array length to a huge value must error out.
	s := sampleState()
	data := Encode(s)
	// Find the encoded length of AnswerObjects (4 elements) and corrupt it.
	// The layout is deterministic, so locate it by encoding a tweaked state.
	s2 := sampleState()
	s2.AnswerObjects = []int64{99, 0, 1, 2}
	data2 := Encode(s2)
	idx := -1
	for i := range data {
		if data[i] != data2[i] {
			// The first differing byte is the low byte of AnswerObjects[0]
			// (0 vs 99, little-endian); the array's length prefix is the 8
			// bytes before it.
			idx = i - 8
			break
		}
	}
	if idx < 0 {
		t.Fatal("could not locate answer array")
	}
	corrupt := append([]byte(nil), data...)
	for j := 0; j < 8; j++ {
		corrupt[idx+j] = 0xff
	}
	if _, err := Decode(corrupt); !errors.Is(err, cverr.ErrBadSnapshot) {
		t.Fatalf("huge length: %v", err)
	}
}

// TestEncodeSizesExactly: Encode's up-front size is the encoding's length, so
// encoding a session fills one allocation and never regrows it.
func TestEncodeSizesExactly(t *testing.T) {
	for _, s := range []*State{{}, sampleState()} {
		if data := Encode(s); cap(data) != len(data) {
			t.Fatalf("encoded %d bytes into a buffer sized %d", len(data), cap(data))
		}
	}
}

// TestDecodeRejectsInconsistentState: Decode refuses every state whose
// header disagrees with its arrays or whose indices leave their range,
// including sizes whose product wraps in 64-bit arithmetic, so a resume can
// size its allocations from the header.
func TestDecodeRejectsInconsistentState(t *testing.T) {
	for name, mutate := range map[string]func(*State){
		"no labels":                  func(s *State) { s.NumLabels = 0 },
		"negative objects":           func(s *State) { s.NumObjects = -3 },
		"huge object count":          func(s *State) { s.NumObjects = 1 << 62 },
		"short validation":           func(s *State) { s.Validation = s.Validation[:2] },
		"short assignment":           func(s *State) { s.Assignment = s.Assignment[:5] },
		"assignment n·m wraps":       func(s *State) { s.NumObjects, s.NumLabels, s.Validation, s.Assignment = 1<<62, 4, nil, nil },
		"confusions k·m² wraps":      func(s *State) { s.NumWorkers, s.Confusions = 1<<62, nil },
		"unequal answer arrays":      func(s *State) { s.AnswerLabels = s.AnswerLabels[:3] },
		"unequal confirmed arrays":   func(s *State) { s.ConfirmedLabels = nil },
		"answer object out of range": func(s *State) { s.AnswerObjects[2] = 3 },
		"answer worker out of range": func(s *State) { s.AnswerWorkers[0] = -1 },
		"answer label out of range":  func(s *State) { s.AnswerLabels[1] = 2 },
		"validation label":           func(s *State) { s.Validation[0] = 2 },
		"confirmed object":           func(s *State) { s.ConfirmedObjects[0] = 3 },
		"confirmed label":            func(s *State) { s.ConfirmedLabels[0] = -1 },
		"quarantined worker":         func(s *State) { s.Quarantined[0] = 2 },
	} {
		s := sampleState()
		mutate(s)
		if _, err := Decode(Encode(s)); !errors.Is(err, cverr.ErrBadSnapshot) {
			t.Errorf("%s: Decode = %v, want ErrBadSnapshot", name, err)
		}
	}
}
