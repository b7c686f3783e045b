package wal

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"crowdval/internal/cverr"
)

// typedWALError asserts the reader's entire error surface: every rejection
// wraps ErrBadWAL, never an untyped error and never a panic (the fuzz driver
// catches panics on its own).
func typedWALError(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, cverr.ErrBadWAL) {
		t.Fatalf("reader rejected input with an untyped error: %v", err)
	}
}

// fuzzSeeds returns a spread of log shapes for the mutator to start from: a
// full log with every record type, a header-only log, a non-zero baseLSN log,
// and a log whose tail is torn mid-record. The same seeds are checked into
// testdata/fuzz/FuzzWALReader.
func fuzzSeeds() [][]byte {
	full := encodeLog(0, []Record{
		{Type: RecCreate, Snapshot: []byte("snap")},
		{Type: RecAddAnswers, Answers: []Answer{{Object: 0, Worker: 1, Label: 1}}},
		{Type: RecBudget, Budget: &Budget{Theta: 12.5, Total: 250, CrowdTime: 2, TimePerValidation: 0.5, TimeLimit: 20}},
		{Type: RecSubmit, Validations: []Validation{{Object: 2, Label: 0}}},
		{Type: RecSubmitBatch, Validations: []Validation{{Object: 0, Label: 1}, {Object: 1, Label: 0}}},
	})
	empty := encodeLog(0, nil)
	rebased := encodeLog(100, []Record{
		{Type: RecAddAnswers, Answers: []Answer{{Object: 3, Worker: 0, Label: 0}}},
	})
	torn := full[:len(full)-3]
	return [][]byte{full, empty, rebased, torn}
}

// encodeLog builds a log image in memory.
func encodeLog(baseLSN uint64, recs []Record) []byte {
	f := &memFile{}
	app, err := NewAppender(f, baseLSN, SyncPolicy{Mode: SyncOff})
	if err != nil {
		panic(err)
	}
	for _, rec := range recs {
		if _, err := app.Append(rec); err != nil {
			panic(err)
		}
	}
	if err := app.Flush(); err != nil {
		panic(err)
	}
	return f.Buffer.Bytes()
}

// FuzzDecodeBudget feeds mutated single-record log images whose seeds are
// RecBudget records, concentrating the mutator on the budget payload. The
// contract: never panic; rejections wrap ErrBadWAL; an accepted RecBudget
// record carries only finite parameters and re-encodes bit for bit (the
// canonical-encoding property replay and log rotation rely on).
func FuzzDecodeBudget(f *testing.F) {
	budgets := []Budget{
		{Theta: 12.5, Total: 250, CrowdTime: 2, TimePerValidation: 0.5, TimeLimit: 20},
		{Total: 1},
		{Theta: 1, Total: 1e9, TimeLimit: -3},
	}
	for _, b := range budgets {
		b := b
		f.Add(encodeLog(0, []Record{{Type: RecBudget, Budget: &b}}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			typedWALError(t, err)
			return
		}
		for {
			rec, _, err := rd.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				typedWALError(t, err)
				return
			}
			if rec.Type != RecBudget {
				continue
			}
			if rec.Budget == nil {
				t.Fatal("accepted RecBudget record with a nil budget")
			}
			for _, v := range [...]float64{rec.Budget.Theta, rec.Budget.Total,
				rec.Budget.CrowdTime, rec.Budget.TimePerValidation, rec.Budget.TimeLimit} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted RecBudget record with non-finite parameter %v", v)
				}
			}
			reencoded := encodeLog(0, []Record{rec})
			rd2, err := NewReader(bytes.NewReader(reencoded))
			if err != nil {
				t.Fatalf("re-encoded budget log has a bad header: %v", err)
			}
			got, _, err := rd2.Next()
			if err != nil {
				t.Fatalf("re-encoded budget record unreadable: %v", err)
			}
			if !reflect.DeepEqual(got, rec) {
				t.Fatalf("budget record changed across re-encode:\n got %+v\nwant %+v", got, rec)
			}
		}
	})
}

// FuzzWALReader feeds mutated log images to the reader. The contract: never
// panic; every rejection (header or record) wraps ErrBadWAL; accepted records
// re-encode canonically (append→read reproduces them bit for bit, so replay
// and log rewriting are loss-free); LSNs are contiguous from BaseLSN+1; and
// CleanOffset is monotone and never exceeds the input length.
func FuzzWALReader(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			typedWALError(t, err)
			return
		}
		var recs []Record
		prevOffset := rd.CleanOffset()
		wantLSN := rd.BaseLSN()
		for {
			rec, lsn, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				typedWALError(t, err)
				// A failed Next must not advance the clean offset.
				if rd.CleanOffset() != prevOffset {
					t.Fatalf("CleanOffset moved on a rejected record: %d -> %d", prevOffset, rd.CleanOffset())
				}
				break
			}
			wantLSN++
			if lsn != wantLSN {
				t.Fatalf("LSN %d, want contiguous %d", lsn, wantLSN)
			}
			if rd.CleanOffset() <= prevOffset || rd.CleanOffset() > int64(len(data)) {
				t.Fatalf("CleanOffset %d out of range (%d, %d]", rd.CleanOffset(), prevOffset, len(data))
			}
			prevOffset = rd.CleanOffset()
			recs = append(recs, rec)
		}
		// After the iteration ends (cleanly or not), Next stays sticky.
		if _, _, err := rd.Next(); err != io.EOF {
			t.Fatalf("Next after end = %v, want io.EOF", err)
		}

		// Canonical re-encode: appending the accepted records to a fresh log
		// and reading them back must reproduce them exactly. This is the
		// property checkpoint rotation relies on when it rewrites a log.
		reencoded := encodeLog(rd.BaseLSN(), recs)
		rd2, err := NewReader(bytes.NewReader(reencoded))
		if err != nil {
			t.Fatalf("re-encoded log has a bad header: %v", err)
		}
		for i, want := range recs {
			got, _, err := rd2.Next()
			if err != nil {
				t.Fatalf("re-encoded record %d unreadable: %v", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("record %d changed across re-encode:\n got %+v\nwant %+v", i, got, want)
			}
		}
		if _, _, err := rd2.Next(); err != io.EOF {
			t.Fatalf("re-encoded log has trailing records: %v", err)
		}
	})
}

// checkpointSeeds returns frames for the checkpoint mutator to start from: an
// empty snapshot at LSN 0, a short snapshot, a binary snapshot at a high LSN,
// a truncated header and a frame with a damaged checksum. The same seeds,
// each with a flip byte of 0xff, are checked into
// testdata/fuzz/FuzzParseCheckpoint.
func checkpointSeeds() [][]byte {
	frame := func(lsn uint64, snapshot []byte) []byte {
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, lsn, snapshot); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	binarySnap := make([]byte, 64)
	for i := range binarySnap {
		binarySnap[i] = byte(i * 37)
	}
	short := frame(41, []byte("the-session-snapshot"))
	badCRC := append([]byte(nil), short...)
	badCRC[16] ^= 0x01
	return [][]byte{
		frame(0, nil),
		short,
		frame(1<<40+7, binarySnap),
		short[:checkpointHeaderSize-3],
		badCRC,
	}
}

// FuzzParseCheckpoint feeds mutated checkpoint frames to the parser. The
// contract: never panic; every rejection wraps ErrBadWAL; an accepted frame
// re-encodes byte-identically through WriteCheckpoint; and any single-byte
// change to an accepted frame (xor flip, at every position) is rejected —
// magic and version are checked exactly, and CRC-32 detects every error
// burst of 32 bits or fewer in the LSN and snapshot it covers.
func FuzzParseCheckpoint(f *testing.F) {
	for _, seed := range checkpointSeeds() {
		f.Add(seed, byte(0xff))
	}
	f.Fuzz(func(t *testing.T, frame []byte, flip byte) {
		lsn, snapshot, err := ParseCheckpoint(frame)
		if err != nil {
			typedWALError(t, err)
			return
		}
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, lsn, snapshot); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), frame) {
			t.Fatal("accepted frame does not re-encode byte-identically")
		}
		if flip == 0 {
			flip = 0xff
		}
		damaged := append([]byte(nil), frame...)
		for i := range damaged {
			damaged[i] ^= flip
			if _, _, err := ParseCheckpoint(damaged); !errors.Is(err, cverr.ErrBadWAL) {
				t.Fatalf("byte %d xor %#x: parse = %v, want ErrBadWAL", i, flip, err)
			}
			damaged[i] ^= flip
		}
	})
}
