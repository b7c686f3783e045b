// Package wal implements the per-session write-ahead log of the serving
// tier: an append-only record log of session mutations (creation snapshot,
// crowd-answer ingests, expert validations) with length-prefixed, CRC32-framed
// records behind a small versioned header.
//
// The log is the durability half of the library's determinism story. Every
// mutation the serving tier applies is framed as one record and appended
// before the session mutates, so the log is always an exact prescription of
// the applied mutation sequence; because full-path sessions replay
// bit-for-bit and delta sessions re-settle to a certified fixed point,
// replaying the log against the newest snapshot checkpoint reconstructs the
// crashed state exactly. The package is a leaf: it knows framing and fsync
// policy, not sessions — record payloads carry plain integers and opaque
// snapshot bytes.
//
// On-disk layout of a log file:
//
//	header:  magic "CVWL" (u32) | version (u32) | baseLSN (u64)
//	record:  payloadLen (u32) | crc32(payload) (u32) | payload
//	payload: type (u8) | type-specific body, little-endian fixed-width ints
//
// Records are implicitly numbered: the i-th record after the header has LSN
// baseLSN+i (1-based), so a log that was truncated behind a checkpoint keeps
// stable record numbers. A Reader stops cleanly at the first torn or corrupt
// record — the defining property of a crash-tail — and reports the byte
// offset of the last intact record. Recovery does not truncate there: it
// reattaches at the end of the file, torn bytes included, and rewrites the
// log canonically, without the torn tail, before anything is appended.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"crowdval/internal/cverr"
)

// Magic identifies a crowdval write-ahead log ("CVWL").
const Magic = 0x4356574c

// Version is the current log encoding version.
const Version = 1

// headerSize is the byte length of the log file header.
const headerSize = 16

// frameOverhead is the byte length of one record's frame (length + CRC).
const frameOverhead = 8

// maxPayloadBytes bounds a single record payload (the create-record snapshot
// of a very large session is the realistic maximum). Lengths beyond it are
// treated as corruption, which also keeps a hostile length prefix from
// requesting an absurd allocation.
const maxPayloadBytes = 1 << 30

// RecordType tags the payload encoding of one record.
type RecordType uint8

// The record types of log version 1.
const (
	// RecCreate carries the encoded snapshot of the freshly created session
	// — always the first record (LSN baseLSN+1) of a log that was never
	// truncated. It is what makes a log self-contained: recovery without any
	// checkpoint resumes this snapshot and replays the rest.
	RecCreate RecordType = 1
	// RecAddAnswers carries one ingested crowd-answer batch. For coalesced
	// ingests the serving tier logs the merged batch, so replay applies
	// exactly what the live session applied.
	RecAddAnswers RecordType = 2
	// RecSubmit carries one expert validation.
	RecSubmit RecordType = 3
	// RecSubmitBatch carries one transactional validation batch.
	RecSubmitBatch RecordType = 4
	// RecBudget carries a per-tenant budget/deadline update (the parameters
	// of the §6.8 cost tracker). Only the parameters are logged: the spent
	// count is reconstructed exactly by replaying the RecSubmit/RecSubmitBatch
	// records that follow, each of which re-charges the tracker.
	RecBudget RecordType = 5
	// RecNoop carries no body. The health prober appends and fsyncs one to a
	// sidecar probe file to test whether the disk accepts durable writes
	// again; replay ignores it, so a noop is harmless anywhere in a log.
	RecNoop RecordType = 6
)

// Answer is one crowd answer in a RecAddAnswers record.
type Answer struct {
	Object int
	Worker int
	Label  int
}

// Validation is one expert validation in a RecSubmit or RecSubmitBatch
// record.
type Validation struct {
	Object int
	Label  int
}

// Budget is the budget/deadline parameter set of a RecBudget record. All
// fields are finite floats (NaN and infinities are rejected as corruption,
// which keeps the encoding canonical under bitwise comparison).
type Budget struct {
	// Theta is θ, the expert-to-crowd cost ratio (<= 0 means the default).
	Theta float64
	// Total is b, the budget in crowd-answer units.
	Total float64
	// CrowdTime, TimePerValidation and TimeLimit carry the completion-time
	// deadline; TimeLimit <= 0 disables it.
	CrowdTime         float64
	TimePerValidation float64
	TimeLimit         float64
}

// Record is one logged mutation. Exactly the fields implied by Type are
// meaningful: Snapshot for RecCreate, Answers for RecAddAnswers, Validations
// for RecSubmit (length 1) and RecSubmitBatch, Budget for RecBudget.
type Record struct {
	Type        RecordType
	Snapshot    []byte
	Answers     []Answer
	Validations []Validation
	Budget      *Budget
}

// badWAL wraps a framing problem in the package's sentinel.
func badWAL(format string, args ...any) error {
	return fmt.Errorf("%w: %s", cverr.ErrBadWAL, fmt.Sprintf(format, args...))
}

// encodePayload serializes a record into its payload bytes.
func encodePayload(rec Record) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(byte(rec.Type))
	putU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	switch rec.Type {
	case RecCreate:
		buf.Write(rec.Snapshot)
	case RecAddAnswers:
		putU64(uint64(len(rec.Answers)))
		for _, a := range rec.Answers {
			putU64(uint64(int64(a.Object)))
			putU64(uint64(int64(a.Worker)))
			putU64(uint64(int64(a.Label)))
		}
	case RecSubmit:
		if len(rec.Validations) != 1 {
			return nil, fmt.Errorf("wal: RecSubmit must carry exactly one validation, got %d", len(rec.Validations))
		}
		putU64(uint64(int64(rec.Validations[0].Object)))
		putU64(uint64(int64(rec.Validations[0].Label)))
	case RecSubmitBatch:
		putU64(uint64(len(rec.Validations)))
		for _, v := range rec.Validations {
			putU64(uint64(int64(v.Object)))
			putU64(uint64(int64(v.Label)))
		}
	case RecBudget:
		if rec.Budget == nil {
			return nil, fmt.Errorf("wal: RecBudget must carry a budget")
		}
		for _, v := range [...]float64{rec.Budget.Theta, rec.Budget.Total,
			rec.Budget.CrowdTime, rec.Budget.TimePerValidation, rec.Budget.TimeLimit} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("wal: non-finite budget parameter %v", v)
			}
			putU64(math.Float64bits(v))
		}
	case RecNoop:
		// No body: the record is just its type byte.
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	return buf.Bytes(), nil
}

// decodePayload parses payload bytes back into a Record. Every structural
// problem is reported through ErrBadWAL; trailing bytes are corruption, so
// the encoding stays canonical.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, badWAL("empty record payload")
	}
	rec := Record{Type: RecordType(payload[0])}
	body := payload[1:]
	takeU64 := func() (uint64, error) {
		if len(body) < 8 {
			return 0, badWAL("record body truncated")
		}
		v := binary.LittleEndian.Uint64(body)
		body = body[8:]
		return v, nil
	}
	takeInt := func() (int, error) {
		v, err := takeU64()
		return int(int64(v)), err
	}
	switch rec.Type {
	case RecCreate:
		rec.Snapshot = append([]byte(nil), body...)
		return rec, nil
	case RecAddAnswers:
		n, err := takeU64()
		if err != nil {
			return Record{}, err
		}
		if n > uint64(len(body)/24) {
			return Record{}, badWAL("answer count %d exceeds record body", n)
		}
		rec.Answers = make([]Answer, n)
		for i := range rec.Answers {
			if rec.Answers[i].Object, err = takeInt(); err != nil {
				return Record{}, err
			}
			if rec.Answers[i].Worker, err = takeInt(); err != nil {
				return Record{}, err
			}
			if rec.Answers[i].Label, err = takeInt(); err != nil {
				return Record{}, err
			}
		}
	case RecSubmit:
		var v Validation
		var err error
		if v.Object, err = takeInt(); err != nil {
			return Record{}, err
		}
		if v.Label, err = takeInt(); err != nil {
			return Record{}, err
		}
		rec.Validations = []Validation{v}
	case RecSubmitBatch:
		n, err := takeU64()
		if err != nil {
			return Record{}, err
		}
		if n > uint64(len(body)/16) {
			return Record{}, badWAL("validation count %d exceeds record body", n)
		}
		rec.Validations = make([]Validation, n)
		for i := range rec.Validations {
			if rec.Validations[i].Object, err = takeInt(); err != nil {
				return Record{}, err
			}
			if rec.Validations[i].Label, err = takeInt(); err != nil {
				return Record{}, err
			}
		}
	case RecBudget:
		b := &Budget{}
		for _, dst := range [...]*float64{&b.Theta, &b.Total,
			&b.CrowdTime, &b.TimePerValidation, &b.TimeLimit} {
			bits, err := takeU64()
			if err != nil {
				return Record{}, err
			}
			v := math.Float64frombits(bits)
			// Non-finite parameters are corruption: the appender never writes
			// them, and rejecting them keeps accepted records re-encodable bit
			// for bit (NaN breaks bitwise/DeepEqual comparison).
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Record{}, badWAL("non-finite budget parameter")
			}
			*dst = v
		}
		rec.Budget = b
	case RecNoop:
		// No body; the trailing-bytes check below enforces it.
	default:
		return Record{}, badWAL("unknown record type %d", rec.Type)
	}
	if len(body) != 0 {
		return Record{}, badWAL("%d trailing bytes after record body", len(body))
	}
	return rec, nil
}

// SyncMode selects when an Appender flushes and fsyncs.
type SyncMode int

const (
	// SyncOff never fsyncs: records reach the OS on buffer flushes and the
	// kernel's own writeback. Fastest; a crash can lose acknowledged records
	// (recovery still yields a consistent prefix).
	SyncOff SyncMode = iota
	// SyncInterval flushes and fsyncs every Interval records — the bounded
	// middle ground: at most Interval acknowledged records are at risk.
	SyncInterval
	// SyncAlways flushes and fsyncs after every record: an acknowledged
	// mutation is durable before the caller proceeds.
	SyncAlways
)

// DefaultSyncInterval is the records-per-fsync of SyncInterval when the
// policy leaves Interval at zero.
const DefaultSyncInterval = 64

// SyncPolicy parameterizes an Appender's durability/throughput trade-off.
type SyncPolicy struct {
	Mode SyncMode
	// Interval is the number of records between fsyncs under SyncInterval
	// (DefaultSyncInterval when zero); ignored by the other modes.
	Interval int
}

// ParseSyncPolicy maps the CLI spelling of a sync policy ("always",
// "interval", "off") to its SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case "interval":
		return SyncPolicy{Mode: SyncInterval}, nil
	case "off":
		return SyncPolicy{Mode: SyncOff}, nil
	default:
		return SyncPolicy{}, fmt.Errorf("wal: unknown sync policy %q (want always, interval or off)", s)
	}
}

func (p SyncPolicy) interval() int {
	if p.Interval > 0 {
		return p.Interval
	}
	return DefaultSyncInterval
}

// String returns the CLI spelling of the policy.
func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return fmt.Sprintf("interval(%d)", p.interval())
	default:
		return "off"
	}
}

// File is the destination of an Appender: an *os.File in production, a
// fault-injecting wrapper in the crash tests.
type File interface {
	io.Writer
	Sync() error
}

// Appender writes records to a log file. It buffers frames and applies the
// configured sync policy; callers observe durability through the return value
// of Append — a record whose Append failed must not be applied. Appender is
// not safe for concurrent use; the serving tier serializes appends under the
// session's write lock, which is what keeps log order equal to apply order.
type Appender struct {
	f      File
	bw     *bufio.Writer
	policy SyncPolicy
	lsn    uint64 // LSN of the last appended record
	unsync int    // records appended since the last fsync

	bytes   int64
	records int64
	syncs   int64
}

// NewAppender starts a fresh log on f: it writes the header (baseLSN numbers
// the records that were truncated away behind a checkpoint; 0 for a brand-new
// session) and returns an appender whose next record gets LSN baseLSN+1.
func NewAppender(f File, baseLSN uint64, policy SyncPolicy) (*Appender, error) {
	a := &Appender{f: f, bw: bufio.NewWriter(f), policy: policy, lsn: baseLSN}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], baseLSN)
	if _, err := a.bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("wal: writing log header: %w", err)
	}
	a.bytes += headerSize
	// The header must be durable before any record is acknowledged, whatever
	// the record policy: a log whose header was lost to a crash is
	// indistinguishable from corruption.
	if err := a.sync(); err != nil {
		return nil, fmt.Errorf("wal: syncing log header: %w", err)
	}
	return a, nil
}

// ResumeAppender continues an existing log: f is positioned at the end of the
// file and lastLSN is the LSN of the last intact record. Appending is only
// sound when no torn bytes follow that record; recovery, which reattaches to
// a file that may still end in a torn tail, rewrites the log canonically
// before the first append.
func ResumeAppender(f File, lastLSN uint64, policy SyncPolicy) *Appender {
	return &Appender{f: f, bw: bufio.NewWriter(f), policy: policy, lsn: lastLSN}
}

// Append frames and writes one record, applying the sync policy, and returns
// the record's LSN. On error the record must be considered not logged: the
// caller must not apply the mutation.
func (a *Appender) Append(rec Record) (uint64, error) {
	payload, err := encodePayload(rec)
	if err != nil {
		return 0, err
	}
	if len(payload) > maxPayloadBytes {
		return 0, fmt.Errorf("wal: record payload of %d bytes exceeds the %d limit", len(payload), maxPayloadBytes)
	}
	var frame [frameOverhead]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := a.bw.Write(frame[:]); err != nil {
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	if _, err := a.bw.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	// The position only advances once the record is as durable as the policy
	// promises. A failed sync must leave LSN() at the last good record: the
	// torn bytes are not part of the log's history, and a caller that heals
	// by rebasing at LSN() — or a replica that resumes streaming from it —
	// would otherwise skip a record that was never applied.
	a.unsync++
	switch a.policy.Mode {
	case SyncAlways:
		if err := a.sync(); err != nil {
			a.unsync--
			return 0, fmt.Errorf("wal: syncing record: %w", err)
		}
	case SyncInterval:
		if a.unsync >= a.policy.interval() {
			if err := a.sync(); err != nil {
				a.unsync--
				return 0, fmt.Errorf("wal: syncing record: %w", err)
			}
		}
	}
	a.lsn++
	a.records++
	a.bytes += int64(frameOverhead + len(payload))
	return a.lsn, nil
}

// Sync flushes the buffer and fsyncs the file regardless of policy — the
// hook for explicit durability points (checkpoints, shutdown).
func (a *Appender) Sync() error {
	return a.sync()
}

func (a *Appender) sync() error {
	if err := a.bw.Flush(); err != nil {
		return err
	}
	if err := a.f.Sync(); err != nil {
		return err
	}
	a.syncs++
	a.unsync = 0
	return nil
}

// Flush writes buffered frames to the file without fsyncing.
func (a *Appender) Flush() error { return a.bw.Flush() }

// LSN returns the LSN of the last appended record.
func (a *Appender) LSN() uint64 { return a.lsn }

// Metrics returns the appender's cumulative bytes written (header included),
// records appended and fsyncs issued — the serving tier folds deltas of these
// into its /metrics counters.
func (a *Appender) Metrics() (bytes, records, syncs int64) {
	return a.bytes, a.records, a.syncs
}

// Reader iterates the records of a log stream. Next returns io.EOF at a
// clean end of log and an ErrBadWAL-wrapped error at the first torn or
// corrupt record; either way CleanOffset reports the byte offset just past
// the last intact record. Bytes beyond it are a torn tail, which recovery
// drops by rewriting the log rather than by truncating it.
type Reader struct {
	r       *bufio.Reader
	base    uint64
	lsn     uint64
	offset  int64
	done    bool
	scratch []byte
}

// NewReader parses the log header of r and prepares record iteration. A
// missing or malformed header is reported through ErrBadWAL; an unsupported
// version through ErrBadWAL as well (the log is per-process state, not an
// interchange format — there is no cross-version decode path to select).
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, badWAL("log header truncated: %v", err)
	}
	base, err := parseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	return &Reader{
		r:      br,
		base:   base,
		lsn:    base,
		offset: headerSize,
	}, nil
}

// parseHeader checks a complete log header and returns its base LSN.
func parseHeader(hdr []byte) (uint64, error) {
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != Magic {
		return 0, badWAL("bad log magic %#x", got)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return 0, badWAL("unsupported log version %d", v)
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), nil
}

// payloadLen returns the payload length a record frame declares, rejecting
// an implausible one as corruption before anything is read or allocated for
// it.
func payloadLen(frame []byte) (int64, error) {
	n := binary.LittleEndian.Uint32(frame[0:4])
	if n == 0 || n > maxPayloadBytes {
		return 0, badWAL("implausible record length %d", n)
	}
	return int64(n), nil
}

// decodeFrame checks a complete payload against its frame's CRC-32 and
// decodes it.
func decodeFrame(frame, payload []byte) (Record, error) {
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:8]) {
		return Record{}, badWAL("record checksum mismatch")
	}
	return decodePayload(payload)
}

// BaseLSN returns the LSN the log was truncated to: records in the file are
// numbered BaseLSN+1 onward.
func (rd *Reader) BaseLSN() uint64 { return rd.base }

// Next returns the next record and its LSN. io.EOF marks the clean end of
// the log. Any other error wraps ErrBadWAL and marks a torn or corrupt tail:
// iteration stops, and CleanOffset points just past the last intact record.
func (rd *Reader) Next() (Record, uint64, error) {
	if rd.done {
		return Record{}, 0, io.EOF
	}
	var frame [frameOverhead]byte
	if _, err := io.ReadFull(rd.r, frame[:]); err != nil {
		rd.done = true
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, badWAL("record frame truncated: %v", err)
	}
	n, err := payloadLen(frame[:])
	if err != nil {
		rd.done = true
		return Record{}, 0, err
	}
	// Read the payload through a bounded copy instead of a single up-front
	// allocation: a corrupt length prefix on a short file then costs only the
	// bytes that actually exist.
	var buf bytes.Buffer
	if cap(rd.scratch) == 0 {
		rd.scratch = make([]byte, 32<<10)
	}
	if _, err := io.CopyBuffer(&buf, io.LimitReader(rd.r, n), rd.scratch); err != nil {
		rd.done = true
		return Record{}, 0, badWAL("reading record payload: %v", err)
	}
	payload := buf.Bytes()
	if int64(len(payload)) != n {
		rd.done = true
		return Record{}, 0, badWAL("record payload truncated: have %d of %d bytes", len(payload), n)
	}
	rec, err := decodeFrame(frame[:], payload)
	if err != nil {
		rd.done = true
		return Record{}, 0, err
	}
	rd.lsn++
	rd.offset += frameOverhead + n
	return rec, rd.lsn, nil
}

// CleanOffset returns the byte offset just past the last intact record (the
// header end when no record was intact). After a torn tail, truncating the
// file to this offset makes it clean again.
func (rd *Reader) CleanOffset() int64 { return rd.offset }
