package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// Byte lengths of the per-version tails, used by the compat tests to cut a
// version-4 image back to an older version: the version-2 tail is 1 bool +
// 1 float, the version-3 tail 1 bool, the version-4 tail 1 bool + 5 floats
// + 1 int64.
const (
	v2TailLen = 1 + 8
	v3TailLen = 1
	v4TailLen = 1 + 5*8 + 8
)

// fullSampleState is sampleState with the delta configuration and the
// budget state set, so every version's tail carries non-zero fields.
func fullSampleState() *State {
	s := sampleState()
	s.DeltaEnabled = true
	s.DeltaMaxDirtyFraction = 0.125
	s.DeltaScoring = true
	s.BudgetEnabled = true
	s.BudgetTheta = 12.5
	s.BudgetTotal = 500
	s.BudgetSpent = 7
	s.BudgetCrowdTime = 2.25
	s.BudgetTimePerValidation = 0.5
	s.BudgetTimeLimit = 40
	return s
}

// olderImage returns testdata/sample-v4.cvsn, the version-4 encoding of
// fullSampleState (written before version 5 packed the integer arrays), cut
// back to the given version 1 to 4: the tails that version lacks are cut
// off and its version field rewritten.
func olderImage(t testing.TB, version uint16) []byte {
	t.Helper()
	v4, err := os.ReadFile(filepath.Join("testdata", "sample-v4.cvsn"))
	if err != nil {
		t.Fatal(err)
	}
	cut := map[uint16]int{1: v2TailLen + v3TailLen + v4TailLen, 2: v3TailLen + v4TailLen, 3: v4TailLen, 4: 0}[version]
	img := append([]byte(nil), v4[:len(v4)-cut]...)
	img[4], img[5] = byte(version), 0 // little-endian uint16 version
	return img
}

// TestDecodeVersion1Compat: a version-1 snapshot (no tails) still decodes,
// with the delta configuration and the budget state reading as disabled.
func TestDecodeVersion1Compat(t *testing.T) {
	got, err := Decode(olderImage(t, 1))
	if err != nil {
		t.Fatalf("version-1 snapshot rejected: %v", err)
	}
	if want := sampleState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("version-1 decode mismatch:\n got  %+v\n want %+v", got, want)
	}
}

// TestDecodeVersion2Compat: a version-2 snapshot (delta-ingest tail, no
// delta-scoring or budget tail) still decodes, with delta scoring and the
// budget state reading as disabled.
func TestDecodeVersion2Compat(t *testing.T) {
	got, err := Decode(olderImage(t, 2))
	if err != nil {
		t.Fatalf("version-2 snapshot rejected: %v", err)
	}
	want := sampleState()
	want.DeltaEnabled = true
	want.DeltaMaxDirtyFraction = 0.125
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("version-2 decode mismatch:\n got  %+v\n want %+v", got, want)
	}
}

// TestDecodeVersion3Compat: a version-3 snapshot (delta tails, no budget
// tail) still decodes, with the budget state reading as disabled and every
// pre-v4 field intact.
func TestDecodeVersion3Compat(t *testing.T) {
	got, err := Decode(olderImage(t, 3))
	if err != nil {
		t.Fatalf("version-3 snapshot rejected: %v", err)
	}
	want := fullSampleState()
	want.BudgetEnabled, want.BudgetTheta, want.BudgetTotal, want.BudgetSpent = false, 0, 0, 0
	want.BudgetCrowdTime, want.BudgetTimePerValidation, want.BudgetTimeLimit = 0, 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("version-3 decode mismatch:\n got  %+v\n want %+v", got, want)
	}
}

// TestDecodeVersion4Compat: a version-4 snapshot, whose integer arrays are
// 8-byte words, decodes to the state it encodes, and re-encodes as a
// smaller version-5 image of the same state.
func TestDecodeVersion4Compat(t *testing.T) {
	v4 := olderImage(t, 4)
	got, err := Decode(v4)
	if err != nil {
		t.Fatalf("version-4 snapshot rejected: %v", err)
	}
	want := fullSampleState()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("version-4 decode mismatch:\n got  %+v\n want %+v", got, want)
	}
	v5 := Encode(got)
	if v5[4] != Version || v5[5] != 0 {
		t.Fatalf("re-encoded as version %d, want %d", int(v5[4])|int(v5[5])<<8, Version)
	}
	if len(v5) >= len(v4) {
		t.Fatalf("version-5 image is %d bytes, the version-4 one %d", len(v5), len(v4))
	}
	again, err := Decode(v5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("version-5 re-encoding decodes to\n %+v\n want %+v", again, want)
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
	data := Encode(sampleState())
	idx := answerObjectsOffset(t)
	corrupt := append([]byte(nil), data...)
	for j := 0; j < 8; j++ {
		corrupt[idx+j] = 0xff
	}
	if _, err := Decode(corrupt); !errors.Is(err, cverr.ErrBadSnapshot) {
		t.Fatalf("huge length: %v", err)
	}
}

// answerObjectsOffset returns the offset of AnswerObjects' length prefix in
// Encode(sampleState()). The layout is deterministic, so it locates the
// array by encoding a state that differs only in the array's first element.
func answerObjectsOffset(t *testing.T) int {
	t.Helper()
	data := Encode(sampleState())
	s2 := sampleState()
	s2.AnswerObjects = []int64{99, 0, 1, 2}
	data2 := Encode(s2)
	for i := range data {
		if data[i] != data2[i] {
			// The first differing byte is the first byte of AnswerObjects[0];
			// the array's length prefix is the 8 bytes before it.
			return i - 8
		}
	}
	t.Fatal("could not locate answer array")
	return 0
}

// TestDecodeRejectsBadPackedArrays: a packed array whose uvarint runs past
// the payload, spans more than ten bytes or overflows 64 bits, or whose
// declared length exceeds the remaining payload at one byte per element,
// is refused with ErrBadSnapshot, without a panic.
func TestDecodeRejectsBadPackedArrays(t *testing.T) {
	data := Encode(sampleState())
	off := answerObjectsOffset(t)
	elems := off + 8 // AnswerObjects' first element
	// withElement puts one element before AnswerObjects' encoded elements,
	// so the decoder meets it first.
	withElement := func(elem ...byte) []byte {
		img := append([]byte(nil), data[:elems]...)
		img = append(img, elem...)
		return append(img, data[elems:]...)
	}
	overLong := append(bytes.Repeat([]byte{0x80}, 10), 0x00)
	overflowing := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	beyond := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(beyond[off:], uint64(len(data)-elems+1))
	for _, c := range []struct {
		name, msg string
		img       []byte
	}{
		// Four elements declared, one read, the second's continuation bits
		// run to the end of the payload.
		{"unterminated", "uvarint", append(append([]byte(nil), data[:elems]...), 0x00, 0x80, 0x80, 0x80, 0x80)},
		{"over-long", "uvarint", withElement(overLong...)},
		{"overflowing", "uvarint", withElement(overflowing...)},
		{"length beyond payload", "exceeds remaining payload", beyond},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked: %v", r)
				}
			}()
			_, err := Decode(c.img)
			if !errors.Is(err, cverr.ErrBadSnapshot) || !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("Decode = %v, want ErrBadSnapshot for a %s", err, c.msg)
			}
		})
	}
	// A well-formed ten-byte uvarint decodes: 0xff×9 then 0x01 is the
	// largest value, the zigzag of MinInt64, so the array reads as object
	// MinInt64 and only the range check refuses it.
	maxLen := append(bytes.Repeat([]byte{0xff}, 9), 0x01)
	img := append(append(append([]byte(nil), data[:elems]...), maxLen...), data[elems+1:]...)
	if _, err := Decode(img); !errors.Is(err, cverr.ErrBadSnapshot) || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("a ten-byte uvarint: Decode = %v, want the range check's refusal", err)
	}
}

// TestRoundTripPackedExtremes: packed arrays hold any int64, including the
// differences that wrap in 64-bit arithmetic, and take one byte an element
// when consecutive elements differ by little.
func TestRoundTripPackedExtremes(t *testing.T) {
	want := sampleState()
	want.History[1].Masked = []int64{math.MinInt64, math.MaxInt64, -1, 0, math.MinInt64, 1 << 40, math.MaxInt64}
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got.History, want.History)
	}
	if n := packedSize([]int64{0, 1, 1, 0, -1, 31, 0}); n != 7 {
		t.Fatalf("seven small differences packed into %d bytes, want 7", n)
	}
	if n := packedSize([]int64{math.MinInt64, 0}); n != 20 {
		t.Fatalf("two differences of MinInt64 packed into %d bytes, want 20", n)
	}
}

// TestEncodeSizesExactly: Encode's up-front size is the encoding's length, so
// encoding a session fills one allocation and never regrows it.
func TestEncodeSizesExactly(t *testing.T) {
	extreme := fullSampleState()
	extreme.History[0].Revised = []int64{math.MaxInt64, math.MinInt64, 0}
	for _, s := range []*State{{}, sampleState(), extreme} {
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
