package wal

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"crowdval/internal/cverr"
)

// memFile is an in-memory wal.File for appender tests.
type memFile struct {
	bytes.Buffer
	syncs int
}

func (f *memFile) Sync() error { f.syncs++; return nil }

func testRecords() []Record {
	return []Record{
		{Type: RecCreate, Snapshot: []byte("snapshot-bytes")},
		{Type: RecAddAnswers, Answers: []Answer{{Object: 0, Worker: 1, Label: 1}, {Object: 3, Worker: 2, Label: 0}}},
		{Type: RecSubmit, Validations: []Validation{{Object: 5, Label: 1}}},
		{Type: RecSubmitBatch, Validations: []Validation{{Object: 1, Label: 0}, {Object: 2, Label: 1}, {Object: 4, Label: 0}}},
		{Type: RecAddAnswers, Answers: nil}, // empty batch round-trips too
	}
}

// appendAll writes the canonical test log and returns its bytes.
func appendAll(t *testing.T, baseLSN uint64, policy SyncPolicy) []byte {
	t.Helper()
	f := &memFile{}
	app, err := NewAppender(f, baseLSN, policy)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range testRecords() {
		lsn, err := app.Append(rec)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := baseLSN + uint64(i) + 1; lsn != want {
			t.Fatalf("append %d: LSN %d, want %d", i, lsn, want)
		}
	}
	if err := app.Sync(); err != nil {
		t.Fatal(err)
	}
	return f.Buffer.Bytes()
}

func TestRoundTrip(t *testing.T) {
	const base = 7
	data := appendAll(t, base, SyncPolicy{Mode: SyncOff})
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rd.BaseLSN() != base {
		t.Fatalf("BaseLSN = %d, want %d", rd.BaseLSN(), base)
	}
	want := testRecords()
	for i := range want {
		rec, lsn, err := rd.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if lsn != base+uint64(i)+1 {
			t.Fatalf("record %d: LSN %d, want %d", i, lsn, base+uint64(i)+1)
		}
		if rec.Type != want[i].Type {
			t.Fatalf("record %d: type %d, want %d", i, rec.Type, want[i].Type)
		}
		if !bytes.Equal(rec.Snapshot, want[i].Snapshot) {
			t.Fatalf("record %d: snapshot mismatch", i)
		}
		if len(rec.Answers) != len(want[i].Answers) || (len(rec.Answers) > 0 && !reflect.DeepEqual(rec.Answers, want[i].Answers)) {
			t.Fatalf("record %d: answers %v, want %v", i, rec.Answers, want[i].Answers)
		}
		if len(rec.Validations) != len(want[i].Validations) || (len(rec.Validations) > 0 && !reflect.DeepEqual(rec.Validations, want[i].Validations)) {
			t.Fatalf("record %d: validations %v, want %v", i, rec.Validations, want[i].Validations)
		}
	}
	if _, _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after last record: %v, want io.EOF", err)
	}
	if rd.CleanOffset() != int64(len(data)) {
		t.Fatalf("CleanOffset = %d, want %d", rd.CleanOffset(), len(data))
	}
}

// TestTornTailAtEveryByte truncates the log at every possible byte length and
// checks the defining recovery property: the reader yields an intact prefix
// of the original records, never garbage, and CleanOffset points exactly past
// that prefix.
func TestTornTailAtEveryByte(t *testing.T) {
	data := appendAll(t, 0, SyncPolicy{Mode: SyncOff})
	// Record the byte offset after each intact record.
	boundaries := []int64{headerSize}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := rd.Next(); err != nil {
			break
		}
		boundaries = append(boundaries, rd.CleanOffset())
	}

	for cut := 0; cut <= len(data); cut++ {
		torn := data[:cut]
		rd, err := NewReader(bytes.NewReader(torn))
		if cut < headerSize {
			if err == nil {
				t.Fatalf("cut %d: truncated header accepted", cut)
			}
			if !errors.Is(err, cverr.ErrBadWAL) {
				t.Fatalf("cut %d: header error %v does not wrap ErrBadWAL", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		intact := 0
		for {
			_, _, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, cverr.ErrBadWAL) {
					t.Fatalf("cut %d: tail error %v does not wrap ErrBadWAL", cut, err)
				}
				break
			}
			intact++
		}
		// The intact prefix must be the maximal run of full records that fit.
		wantIntact := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= int64(cut) {
				wantIntact = i
			}
		}
		if intact != wantIntact {
			t.Fatalf("cut %d: %d intact records, want %d", cut, intact, wantIntact)
		}
		if rd.CleanOffset() != boundaries[wantIntact] {
			t.Fatalf("cut %d: CleanOffset %d, want %d", cut, rd.CleanOffset(), boundaries[wantIntact])
		}
		// A clean EOF is only legitimate exactly on a record boundary.
		if intact == len(boundaries)-1 && cut == len(data) {
			continue
		}
	}
}

// TestBitFlipDetected flips one byte in each record region and checks the
// reader reports ErrBadWAL rather than returning a corrupted record.
func TestBitFlipDetected(t *testing.T) {
	data := appendAll(t, 0, SyncPolicy{Mode: SyncOff})
	for pos := headerSize; pos < len(data); pos++ {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0xff
		rd, err := NewReader(bytes.NewReader(corrupt))
		if err != nil {
			t.Fatalf("pos %d: header rejected: %v", pos, err)
		}
		want := testRecords()
		for i := 0; ; i++ {
			rec, _, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, cverr.ErrBadWAL) {
					t.Fatalf("pos %d: error %v does not wrap ErrBadWAL", pos, err)
				}
				break
			}
			// Any record the reader does return must be one of the originals,
			// bit for bit (the flip must not leak through a matching CRC).
			if i >= len(want) || !reflect.DeepEqual(rec, normalize(want[i])) {
				t.Fatalf("pos %d: record %d corrupted silently: %+v", pos, i, rec)
			}
		}
	}
}

// normalize makes nil/empty slice representation match the decoder's output.
func normalize(rec Record) Record {
	if rec.Type == RecCreate && rec.Snapshot == nil {
		rec.Snapshot = []byte{}
	}
	if rec.Type == RecAddAnswers && rec.Answers == nil {
		rec.Answers = []Answer{}
	}
	if rec.Type == RecSubmitBatch && rec.Validations == nil {
		rec.Validations = []Validation{}
	}
	return rec
}

func TestHeaderValidation(t *testing.T) {
	good := appendAll(t, 0, SyncPolicy{Mode: SyncOff})

	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 1
	if _, err := NewReader(bytes.NewReader(badMagic)); !errors.Is(err, cverr.ErrBadWAL) {
		t.Fatalf("bad magic: %v", err)
	}

	badVersion := append([]byte(nil), good...)
	badVersion[4] = 99
	if _, err := NewReader(bytes.NewReader(badVersion)); !errors.Is(err, cverr.ErrBadWAL) {
		t.Fatalf("bad version: %v", err)
	}

	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, cverr.ErrBadWAL) {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	recs := testRecords()

	f := &memFile{}
	app, err := NewAppender(f, 0, SyncPolicy{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	headerSyncs := f.syncs
	for _, rec := range recs {
		if _, err := app.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.syncs - headerSyncs; got != len(recs) {
		t.Fatalf("SyncAlways: %d fsyncs for %d records", got, len(recs))
	}

	f = &memFile{}
	app, err = NewAppender(f, 0, SyncPolicy{Mode: SyncInterval, Interval: 2})
	if err != nil {
		t.Fatal(err)
	}
	headerSyncs = f.syncs
	for _, rec := range recs {
		if _, err := app.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := f.syncs-headerSyncs, len(recs)/2; got != want {
		t.Fatalf("SyncInterval(2): %d fsyncs for %d records, want %d", got, len(recs), want)
	}

	f = &memFile{}
	app, err = NewAppender(f, 0, SyncPolicy{Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	headerSyncs = f.syncs
	for _, rec := range recs {
		if _, err := app.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.syncs - headerSyncs; got != 0 {
		t.Fatalf("SyncOff: %d fsyncs", got)
	}
	// Explicit Sync still works under SyncOff.
	if err := app.Sync(); err != nil {
		t.Fatal(err)
	}
	if f.syncs-headerSyncs != 1 {
		t.Fatalf("explicit Sync did not fsync")
	}

	bytesW, records, syncs := app.Metrics()
	if records != int64(len(recs)) || bytesW <= 0 || syncs < 1 {
		t.Fatalf("Metrics = (%d, %d, %d)", bytesW, records, syncs)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		mode SyncMode
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"off", SyncOff}} {
		p, err := ParseSyncPolicy(tc.in)
		if err != nil || p.Mode != tc.mode {
			t.Fatalf("ParseSyncPolicy(%q) = %+v, %v", tc.in, p, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted an unknown policy")
	}
}

func TestResumeAppenderContinuesLSNs(t *testing.T) {
	f := &memFile{}
	app, err := NewAppender(f, 0, SyncPolicy{Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Append(testRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if err := app.Flush(); err != nil {
		t.Fatal(err)
	}
	app2 := ResumeAppender(f, app.LSN(), SyncPolicy{Mode: SyncOff})
	lsn, err := app2.Append(testRecords()[1])
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 {
		t.Fatalf("resumed LSN = %d, want 2", lsn)
	}
	if err := app2.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(f.Buffer.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, _, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != 2 {
		t.Fatalf("resumed log has %d records, want 2", count)
	}
}

func TestSubmitRecordValidatesCardinality(t *testing.T) {
	f := &memFile{}
	app, err := NewAppender(f, 0, SyncPolicy{Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Append(Record{Type: RecSubmit}); err == nil {
		t.Fatal("RecSubmit without a validation accepted")
	}
	if _, err := app.Append(Record{Type: RecordType(42)}); err == nil {
		t.Fatal("unknown record type accepted")
	}
	if app.LSN() != 0 {
		t.Fatalf("failed appends advanced the LSN to %d", app.LSN())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	snapshot := []byte("the-session-snapshot")
	if err := WriteCheckpoint(&buf, 41, snapshot); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	lsn, got, err := ParseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 41 || !bytes.Equal(got, snapshot) {
		t.Fatalf("ParseCheckpoint = (%d, %q)", lsn, got)
	}

	// Every single-byte corruption or truncation must be detected.
	for pos := 0; pos < len(data); pos++ {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0xff
		if _, _, err := ParseCheckpoint(corrupt); !errors.Is(err, cverr.ErrBadWAL) {
			t.Fatalf("corruption at %d: %v", pos, err)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := ParseCheckpoint(data[:cut]); !errors.Is(err, cverr.ErrBadWAL) {
			t.Fatalf("truncation to %d: %v", cut, err)
		}
	}
}
