// Package snapshot implements the versioned binary encoding of a validation
// session. A snapshot captures everything a serving tier needs to park a
// session and resume it in another process: the session options, the sparse
// crowd answers, the expert validations, the quarantined workers, the full
// probabilistic state (assignment matrix and per-worker confusion matrices),
// the engine bookkeeping and the state of the stochastic components.
//
// The encoding is deliberately exact: float64 values are stored as their IEEE
// 754 bit patterns, so a resumed session reproduces the original session
// bit-for-bit — identical guidance selections, aggregation results and step
// summaries. The format is little-endian, length-prefixed and versioned.
// Since version 5 every integer array is packed: each element is stored as
// the zigzag-encoded difference from the previous one, as a uvarint, which
// takes the sorted and small-valued arrays of a session (answer columns,
// validations, history) from eight bytes an element to one or two; floats
// and scalars keep their fixed-width layout. Encode writes version 5 only;
// snapshots of versions 1 to 4 still decode. A decoder rejects snapshots
// from unknown versions with ErrSnapshotVersion and
// anything structurally damaged or inconsistent with ErrBadSnapshot; the
// layers that resume a decoded state rely on that one check. Encode and
// Decode work on whole byte slices; the serving tier stores them inside the
// CRC-checked checkpoint frame of package wal, both for checkpoints and for
// park files.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"crowdval/internal/cverr"
)

// Magic identifies a crowdval session snapshot ("CVSN").
const Magic = 0x4356534e

// Version is the current encoding version. Version 2 appends the
// delta-ingest configuration after the history records, version 3 the
// delta-scoring flag after that, version 4 the per-tenant budget/deadline
// state after that. Version 5 keeps the version-4 layout but packs every
// integer array: after its u64 length come the zigzag-encoded differences of
// consecutive elements (the first from zero) as uvarints, where versions 1
// to 4 write one 8-byte word per element. Snapshots of versions 1 to 4 are
// still decoded (fields a version lacks read as zero, i.e. the paths
// disabled); Encode writes only version 5.
const Version = 5

// State is the serializable form of a validation session. It mirrors the
// session options and the engine's dynamic state with plain integers, floats
// and strings, keeping the codec independent of the model and core packages.
type State struct {
	// Session options.
	Strategy       string
	Budget         int64
	CandidateLimit int64
	// Parallel is the retired parallel-scoring option. Sessions write false
	// and ignore it on resume; it stays so that Encode and Decode remain
	// lossless over every version.
	Parallel           bool
	Parallelism        int64
	ConfirmationPeriod int64
	SpammerThreshold   float64
	SloppyThreshold    float64
	UncertaintyGoal    float64
	Seed               int64

	// Stochastic state.
	RNGState         uint64
	HybridWeight     float64
	LastWorkerDriven bool

	// Crowd answers (the pristine, unquarantined matrix), sparse.
	NumObjects    int64
	NumWorkers    int64
	NumLabels     int64
	AnswerObjects []int64
	AnswerWorkers []int64
	AnswerLabels  []int64
	ObjectNames   []string
	WorkerNames   []string
	LabelNames    []string

	// Expert state.
	Validation       []int64 // per-object expert label, -1 = unvalidated
	Quarantined      []int64
	ConfirmedObjects []int64
	ConfirmedLabels  []int64

	// Probabilistic state.
	Assignment []float64 // NumObjects × NumLabels, row-major
	Confusions []float64 // NumWorkers × NumLabels × NumLabels, row-major

	// Engine bookkeeping.
	Iteration   int64
	EffortSpent int64
	History     []HistoryRecord

	// Delta-ingest configuration (encoding version 2; zero for version-1
	// snapshots, i.e. the delta path disabled). DeltaMaxDirtyFraction is
	// the retired dirty-fraction override: sessions write 0 and ignore it on
	// resume, falling back to the full sweep at
	// aggregation.DefaultMaxDirtyFraction; it stays so that Encode and
	// Decode remain lossless over every version.
	DeltaEnabled          bool
	DeltaMaxDirtyFraction float64

	// Delta-accelerated guidance scoring (encoding version 3; false for
	// older snapshots, i.e. the exact full-EM scorer).
	DeltaScoring bool

	// Per-tenant budget/deadline state of the §6.8 cost model (encoding
	// version 4; zero for older snapshots, i.e. no budget configured).
	// BudgetSpent counts the validations already charged, the floats mirror
	// cost.Tracker bit for bit.
	BudgetEnabled           bool
	BudgetTheta             float64
	BudgetTotal             float64
	BudgetSpent             int64
	BudgetCrowdTime         float64
	BudgetTimePerValidation float64
	BudgetTimeLimit         float64
}

// HistoryRecord is the serializable form of one core.IterationRecord.
type HistoryRecord struct {
	Iteration        int64
	Object           int64
	Label            int64
	WorkerDrivenUsed bool
	ErrorRate        float64
	HybridWeight     float64
	Uncertainty      float64
	FaultyWorkers    int64
	EMIterations     int64
	Masked           []int64
	Restored         []int64
	Revised          []int64
	SuspectObjects   []int64
	SuspectExpert    []int64
	SuspectCrowd     []int64
}

// Encode serializes the state into one byte slice, sized exactly up front by
// one pass over its collections, so every write lands in spare capacity.
func Encode(s *State) []byte {
	w := writer{buf: make([]byte, 0, encodedSize(s))}
	w.encode(s)
	return w.buf
}

// minHistoryRecordSize is the minimal encoding of one history record: five
// i64 fields, three f64 fields, one bool and six slice length prefixes (in
// every version).
const minHistoryRecordSize = 5*8 + 3*8 + 1 + 6*8

// encodedSize returns the exact byte length of the state's encoding.
func encodedSize(s *State) int {
	const fixed = 4 + 2 + // magic, version
		8*8 + 1 + // the options after the strategy
		8 + 8 + 1 + // stochastic state
		3*8 + // dimensions
		8 + 8 + 8 + // iteration, effort spent, history length
		1 + 8 + 1 + // version-2 and version-3 tails
		1 + 6*8 // version-4 tail
	n := fixed + 8 + len(s.Strategy)
	for _, vs := range [...][]int64{s.AnswerObjects, s.AnswerWorkers, s.AnswerLabels,
		s.Validation, s.Quarantined, s.ConfirmedObjects, s.ConfirmedLabels} {
		n += 8 + packedSize(vs)
	}
	n += 8 + 8*len(s.Assignment) + 8 + 8*len(s.Confusions)
	for _, vs := range [...][]string{s.ObjectNames, s.WorkerNames, s.LabelNames} {
		n += 8
		for _, v := range vs {
			n += 8 + len(v)
		}
	}
	for i := range s.History {
		h := &s.History[i]
		n += minHistoryRecordSize + packedSize(h.Masked) + packedSize(h.Restored) + packedSize(h.Revised) +
			packedSize(h.SuspectObjects) + packedSize(h.SuspectExpert) + packedSize(h.SuspectCrowd)
	}
	return n
}

// packedSize returns the byte length of vs packed, its length prefix left
// out.
func packedSize(vs []int64) int {
	n, prev := 0, int64(0)
	for _, v := range vs {
		n += (bits.Len64(zigzag(v-prev)|1) + 6) / 7
		prev = v
	}
	return n
}

// zigzag maps a difference to an unsigned integer that is small when the
// difference is small in magnitude: 0, −1, 1, −2, … become 0, 1, 2, 3, ….
// Differences wrap in 64-bit arithmetic, which the decoder's wrapping sum
// undoes.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (w *writer) encode(s *State) {
	w.u32(Magic)
	w.u16(Version)

	w.str(s.Strategy)
	w.i64(s.Budget)
	w.i64(s.CandidateLimit)
	w.bool(s.Parallel)
	w.i64(s.Parallelism)
	w.i64(s.ConfirmationPeriod)
	w.f64(s.SpammerThreshold)
	w.f64(s.SloppyThreshold)
	w.f64(s.UncertaintyGoal)
	w.i64(s.Seed)

	w.u64(s.RNGState)
	w.f64(s.HybridWeight)
	w.bool(s.LastWorkerDriven)

	w.i64(s.NumObjects)
	w.i64(s.NumWorkers)
	w.i64(s.NumLabels)
	w.ints(s.AnswerObjects)
	w.ints(s.AnswerWorkers)
	w.ints(s.AnswerLabels)
	w.strs(s.ObjectNames)
	w.strs(s.WorkerNames)
	w.strs(s.LabelNames)

	w.ints(s.Validation)
	w.ints(s.Quarantined)
	w.ints(s.ConfirmedObjects)
	w.ints(s.ConfirmedLabels)

	w.f64s(s.Assignment)
	w.f64s(s.Confusions)

	w.i64(s.Iteration)
	w.i64(s.EffortSpent)
	w.u64(uint64(len(s.History)))
	for i := range s.History {
		h := &s.History[i]
		w.i64(h.Iteration)
		w.i64(h.Object)
		w.i64(h.Label)
		w.bool(h.WorkerDrivenUsed)
		w.f64(h.ErrorRate)
		w.f64(h.HybridWeight)
		w.f64(h.Uncertainty)
		w.i64(h.FaultyWorkers)
		w.i64(h.EMIterations)
		w.ints(h.Masked)
		w.ints(h.Restored)
		w.ints(h.Revised)
		w.ints(h.SuspectObjects)
		w.ints(h.SuspectExpert)
		w.ints(h.SuspectCrowd)
	}

	// Version-2 tail.
	w.bool(s.DeltaEnabled)
	w.f64(s.DeltaMaxDirtyFraction)

	// Version-3 tail.
	w.bool(s.DeltaScoring)

	// Version-4 tail.
	w.bool(s.BudgetEnabled)
	w.f64(s.BudgetTheta)
	w.f64(s.BudgetTotal)
	w.i64(s.BudgetSpent)
	w.f64(s.BudgetCrowdTime)
	w.f64(s.BudgetTimePerValidation)
	w.f64(s.BudgetTimeLimit)
}

// Decode deserializes a snapshot produced by Encode and is the one place that
// decides whether a state is consistent: a state it returns has positive
// dimensions, arrays of exactly the sizes those dimensions declare, and
// objects, workers and labels in range, so a resume may size every
// allocation from its header. It fails with ErrBadSnapshot on structural
// damage or an inconsistent state and ErrSnapshotVersion on an unknown
// encoding version.
func Decode(data []byte) (*State, error) {
	r := &reader{buf: data}
	s, err := r.decode()
	if err != nil {
		return nil, err
	}
	if r.pos != len(r.buf) {
		return nil, bad("%d trailing bytes", len(r.buf)-r.pos)
	}
	if err := check(s); err != nil {
		return nil, err
	}
	return s, nil
}

// check reports the first inconsistency of a decoded state. The dimensions
// are checked against array lengths the payload bounds before anything
// multiplies them, and the products are formed by division, so no hostile
// header can overflow them. Labels lie in [0, NumLabels); an unvalidated
// object holds -1.
func check(s *State) error {
	n, k, m := s.NumObjects, s.NumWorkers, s.NumLabels
	switch {
	case n < 1 || k < 1 || m < 1:
		return bad("dimensions %d×%d with %d labels", n, k, m)
	case !hasLen(len(s.Validation), n):
		return bad("validation covers %d objects, want %d", len(s.Validation), n)
	case !hasLen(len(s.Assignment), n, m):
		return bad("assignment has %d entries, want %d×%d", len(s.Assignment), n, m)
	case !hasLen(len(s.Confusions), k, m, m):
		return bad("confusions have %d entries, want %d×%d²", len(s.Confusions), k, m)
	case len(s.AnswerWorkers) != len(s.AnswerObjects) || len(s.AnswerLabels) != len(s.AnswerObjects):
		return bad("inconsistent answer arrays")
	case len(s.ConfirmedLabels) != len(s.ConfirmedObjects):
		return bad("inconsistent confirmed-validation arrays")
	}
	for i, o := range s.AnswerObjects {
		if w, l := s.AnswerWorkers[i], s.AnswerLabels[i]; !in(o, n) || !in(w, k) || !in(l, m) {
			return bad("answer %d (object %d, worker %d, label %d) out of range", i, o, w, l)
		}
	}
	for o, l := range s.Validation {
		if l != -1 && !in(l, m) {
			return bad("validation label %d of object %d out of range", l, o)
		}
	}
	for i, o := range s.ConfirmedObjects {
		if l := s.ConfirmedLabels[i]; !in(o, n) || !in(l, m) {
			return bad("confirmed validation (object %d, label %d) out of range", o, l)
		}
	}
	for _, w := range s.Quarantined {
		if !in(w, k) {
			return bad("quarantined worker %d out of range", w)
		}
	}
	return nil
}

// hasLen reports whether length is the product of dims, all positive.
func hasLen(length int, dims ...int64) bool {
	l := int64(length)
	for _, d := range dims[1:] {
		if l%d != 0 {
			return false
		}
		l /= d
	}
	return l == dims[0]
}

// in reports whether v lies in [0, bound).
func in(v, bound int64) bool { return v >= 0 && v < bound }

// bad wraps a decoding problem in ErrBadSnapshot.
func bad(format string, args ...any) error {
	return fmt.Errorf("%w: %s", cverr.ErrBadSnapshot, fmt.Sprintf(format, args...))
}

func (r *reader) decode() (*State, error) {
	if magic, err := r.u32(); err != nil || magic != Magic {
		return nil, bad("bad magic")
	}
	version, err := r.u16()
	if err != nil {
		return nil, err
	}
	r.version = version
	if version < 1 || version > Version {
		return nil, fmt.Errorf("%w: got version %d, support versions 1-%d",
			cverr.ErrSnapshotVersion, version, Version)
	}

	s := &State{}
	steps := []func() error{
		func() (err error) { s.Strategy, err = r.str(); return },
		func() (err error) { s.Budget, err = r.i64(); return },
		func() (err error) { s.CandidateLimit, err = r.i64(); return },
		func() (err error) { s.Parallel, err = r.bool(); return },
		func() (err error) { s.Parallelism, err = r.i64(); return },
		func() (err error) { s.ConfirmationPeriod, err = r.i64(); return },
		func() (err error) { s.SpammerThreshold, err = r.f64(); return },
		func() (err error) { s.SloppyThreshold, err = r.f64(); return },
		func() (err error) { s.UncertaintyGoal, err = r.f64(); return },
		func() (err error) { s.Seed, err = r.i64(); return },
		func() (err error) { s.RNGState, err = r.u64(); return },
		func() (err error) { s.HybridWeight, err = r.f64(); return },
		func() (err error) { s.LastWorkerDriven, err = r.bool(); return },
		func() (err error) { s.NumObjects, err = r.i64(); return },
		func() (err error) { s.NumWorkers, err = r.i64(); return },
		func() (err error) { s.NumLabels, err = r.i64(); return },
		func() (err error) { s.AnswerObjects, err = r.ints(); return },
		func() (err error) { s.AnswerWorkers, err = r.ints(); return },
		func() (err error) { s.AnswerLabels, err = r.ints(); return },
		func() (err error) { s.ObjectNames, err = r.strs(); return },
		func() (err error) { s.WorkerNames, err = r.strs(); return },
		func() (err error) { s.LabelNames, err = r.strs(); return },
		func() (err error) { s.Validation, err = r.ints(); return },
		func() (err error) { s.Quarantined, err = r.ints(); return },
		func() (err error) { s.ConfirmedObjects, err = r.ints(); return },
		func() (err error) { s.ConfirmedLabels, err = r.ints(); return },
		func() (err error) { s.Assignment, err = r.f64s(); return },
		func() (err error) { s.Confusions, err = r.f64s(); return },
		func() (err error) { s.Iteration, err = r.i64(); return },
		func() (err error) { s.EffortSpent, err = r.i64(); return },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}

	// Bounding the declared count by remaining/minHistoryRecordSize keeps the
	// allocation below the payload size even for corrupted or hostile length
	// fields.
	historyLen, err := r.u64()
	if err != nil {
		return nil, err
	}
	if historyLen > uint64(len(r.buf)-r.pos)/minHistoryRecordSize {
		return nil, bad("history length %d exceeds remaining payload", historyLen)
	}
	if historyLen > 0 {
		s.History = make([]HistoryRecord, historyLen)
		for i := range s.History {
			if err := r.historyRecord(&s.History[i]); err != nil {
				return nil, err
			}
		}
	}

	if version >= 2 {
		if s.DeltaEnabled, err = r.bool(); err != nil {
			return nil, err
		}
		if s.DeltaMaxDirtyFraction, err = r.f64(); err != nil {
			return nil, err
		}
	}
	if version >= 3 {
		if s.DeltaScoring, err = r.bool(); err != nil {
			return nil, err
		}
	}
	if version >= 4 {
		budgetSteps := []func() error{
			func() (err error) { s.BudgetEnabled, err = r.bool(); return },
			func() (err error) { s.BudgetTheta, err = r.f64(); return },
			func() (err error) { s.BudgetTotal, err = r.f64(); return },
			func() (err error) { s.BudgetSpent, err = r.i64(); return },
			func() (err error) { s.BudgetCrowdTime, err = r.f64(); return },
			func() (err error) { s.BudgetTimePerValidation, err = r.f64(); return },
			func() (err error) { s.BudgetTimeLimit, err = r.f64(); return },
		}
		for _, step := range budgetSteps {
			if err := step(); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// writer appends little-endian, length-prefixed primitives to one buffer
// that Encode sized exactly; the arrays are written by index into its spare
// capacity.
type writer struct{ buf []byte }

func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}

func (w *writer) bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// ints writes vs packed: its length, then each element's zigzag-encoded
// difference from the previous one as a uvarint.
func (w *writer) ints(vs []int64) {
	w.u64(uint64(len(vs)))
	b := w.buf[len(w.buf):cap(w.buf)]
	n, prev := 0, int64(0)
	for _, v := range vs {
		u := zigzag(v - prev)
		prev = v
		for ; u >= 0x80; u >>= 7 {
			b[n] = byte(u) | 0x80
			n++
		}
		b[n] = byte(u)
		n++
	}
	w.buf = w.buf[:len(w.buf)+n]
}

func (w *writer) f64s(vs []float64) {
	w.u64(uint64(len(vs)))
	b := w.buf[len(w.buf) : len(w.buf)+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	w.buf = w.buf[:len(w.buf)+len(b)]
}

func (w *writer) strs(vs []string) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.str(v)
	}
}

// reader consumes what writer produced, with bounds checks that turn
// truncation or corruption into ErrBadSnapshot instead of panics or huge
// allocations: every declared length is checked against the remaining
// payload before anything is allocated for it.
type reader struct {
	buf     []byte
	pos     int
	version uint16
}

// historyRecord decodes one HistoryRecord with straight-line reads — no
// per-record closure allocations, since resume is a hot path for a serving
// tier cycling through many parked sessions.
func (r *reader) historyRecord(h *HistoryRecord) error {
	var err error
	if h.Iteration, err = r.i64(); err != nil {
		return err
	}
	if h.Object, err = r.i64(); err != nil {
		return err
	}
	if h.Label, err = r.i64(); err != nil {
		return err
	}
	if h.WorkerDrivenUsed, err = r.bool(); err != nil {
		return err
	}
	if h.ErrorRate, err = r.f64(); err != nil {
		return err
	}
	if h.HybridWeight, err = r.f64(); err != nil {
		return err
	}
	if h.Uncertainty, err = r.f64(); err != nil {
		return err
	}
	if h.FaultyWorkers, err = r.i64(); err != nil {
		return err
	}
	if h.EMIterations, err = r.i64(); err != nil {
		return err
	}
	if h.Masked, err = r.ints(); err != nil {
		return err
	}
	if h.Restored, err = r.ints(); err != nil {
		return err
	}
	if h.Revised, err = r.ints(); err != nil {
		return err
	}
	if h.SuspectObjects, err = r.ints(); err != nil {
		return err
	}
	if h.SuspectExpert, err = r.ints(); err != nil {
		return err
	}
	h.SuspectCrowd, err = r.ints()
	return err
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) {
		return nil, bad("truncated at byte %d", r.pos)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

func (r *reader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *reader) bool() (bool, error) {
	b, err := r.take(1)
	if err != nil {
		return false, err
	}
	return b[0] != 0, nil
}

// length reads a collection length and checks it against the number of
// bytes that remain, given each element occupies at least elemSize bytes.
func (r *reader) length(elemSize int) (int, error) {
	v, err := r.u64()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)-r.pos)/uint64(elemSize) {
		return 0, bad("length %d exceeds remaining payload", v)
	}
	return int(v), nil
}

func (r *reader) str() (string, error) {
	n, err := r.length(1)
	if err != nil || n == 0 {
		return "", err
	}
	b, err := r.take(n)
	return string(b), err
}

// words reads a length-prefixed array of 8-byte words in one take.
func (r *reader) words() ([]byte, error) {
	n, err := r.length(8)
	if err != nil {
		return nil, err
	}
	return r.take(8 * n)
}

// ints reads an integer array: packed from version 5 on, one 8-byte word
// per element before.
func (r *reader) ints() ([]int64, error) {
	if r.version < 5 {
		return r.i64s()
	}
	return r.packed()
}

// packed reads a packed integer array. Its declared length is checked
// against the remaining payload, at one byte or more per element, before
// the array is allocated; a uvarint that runs past the payload, spans more
// than ten bytes or overflows 64 bits is ErrBadSnapshot. One- and two-byte
// values, the common cases, skip the general uvarint decoder.
func (r *reader) packed() ([]int64, error) {
	n, err := r.length(1)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]int64, n)
	b := r.buf[r.pos:]
	p, prev := 0, int64(0)
	for i := range out {
		if p >= len(b) {
			return nil, bad("malformed uvarint at byte %d", r.pos+p)
		}
		u := uint64(b[p])
		p++
		if u >= 0x80 {
			if p < len(b) && b[p] < 0x80 {
				u = u&0x7f | uint64(b[p])<<7
				p++
			} else {
				v, k := binary.Uvarint(b[p-1:])
				if k <= 0 {
					return nil, bad("malformed uvarint at byte %d", r.pos+p-1)
				}
				u = v
				p += k - 1
			}
		}
		prev += unzigzag(u)
		out[i] = prev
	}
	r.pos += p
	return out, nil
}

// i64s reads an integer array of versions 1 to 4, one 8-byte word per
// element.
func (r *reader) i64s() ([]int64, error) {
	b, err := r.words()
	if err != nil || len(b) == 0 {
		return nil, err
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

func (r *reader) f64s() ([]float64, error) {
	b, err := r.words()
	if err != nil || len(b) == 0 {
		return nil, err
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

func (r *reader) strs() ([]string, error) {
	n, err := r.length(8)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
