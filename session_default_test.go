package crowdval

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// These tests pin the session modes: delta ingest and delta scoring are the
// default, WithExact is the one opt-out, and exact sessions are byte for
// byte what option-less sessions were before the default changed. The
// testdata/exact-session-v*.cvsn fixtures were written by that earlier
// code: v4 is the snapshot of defaultModeStream without options, v2 and v3
// are the same snapshot cut back to the older encodings (without the
// budget tail, and without the delta-scoring flag too, for v2).

// defaultModeStream replays a fixed, seeded session history: three guided
// validations, an ingest that adds a worker and grows the session by one
// object, and two more guided validations.
func defaultModeStream(t *testing.T, opts ...Option) *Session {
	t.Helper()
	d, err := GenerateCrowd(CrowdConfig{NumObjects: 30, NumWorkers: 8, NumLabels: 2,
		AnswersPerObject: 4, NormalAccuracy: 0.75, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d.Answers.Clone(), append([]Option{WithStrategy(StrategyUncertainty),
		WithCandidateLimit(8), WithSeed(5)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		o, err := s.NextObject()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SubmitValidation(o, d.Truth[o]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if err := s.AddAnswers(context.Background(), []Answer{
		{Object: 3, Worker: 8, Label: d.Truth[3]}, {Object: 30, Worker: 2, Label: 1},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		step()
	}
	return s
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestNewSessionDefaultsToDelta: a session built without options runs the
// delta path — one validation already runs frontier iterations and counts
// an accepted delta aggregation — and records both delta flags in its
// snapshot.
func TestNewSessionDefaultsToDelta(t *testing.T) {
	d, err := GenerateCrowd(CrowdConfig{NumObjects: 30, NumWorkers: 8, NumLabels: 2,
		AnswersPerObject: 4, NormalAccuracy: 0.75, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d.Answers)
	if err != nil {
		t.Fatal(err)
	}
	if !s.DeltaIngestEnabled() {
		t.Fatal("an option-less session is not on the delta ingest path")
	}
	o, err := s.NextObject()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitValidation(o, d.Truth[o]); err != nil {
		t.Fatal(err)
	}
	if s.Counters().DeltaIterations == 0 {
		t.Fatal("one validation on a default session ran no delta iterations")
	}
	if c := s.Counters(); c.DeltaAccepted != 1 || c.DeltaStalled+c.DeltaLargeFrontier != 0 {
		t.Fatalf("delta outcomes after one validation: %+v, want one accepted", c)
	}
	if snap := s.snapshotState(); !snap.DeltaEnabled || !snap.DeltaScoring {
		t.Fatalf("snapshot records delta ingest %v, delta scoring %v; want both", snap.DeltaEnabled, snap.DeltaScoring)
	}
}

// TestWithExactMatchesEarlierDefault: a WithExact session runs no delta
// iteration and ends, on a seeded stream, in the snapshot bytes an
// option-less session produced before delta became the default.
func TestWithExactMatchesEarlierDefault(t *testing.T) {
	s := defaultModeStream(t, WithExact())
	if n := s.Counters().DeltaIterations; n != 0 {
		t.Fatalf("an exact session ran %d delta iterations", n)
	}
	if c := s.Counters(); c.DeltaAccepted+c.DeltaStalled+c.DeltaLargeFrontier != 0 {
		t.Fatalf("an exact session counted delta outcomes %+v", c)
	}
	got, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := readFixture(t, "exact-session-v4.cvsn"); !bytes.Equal(got, want) {
		t.Fatalf("exact session snapshot (%d bytes) differs from the earlier option-less one (%d bytes)", len(got), len(want))
	}

	// WithExact opts out of both paths; a later delta option turns its own
	// path back on.
	cfg := defaultSessionConfig()
	cfg.apply([]Option{WithExact(), WithDeltaScoring()})
	if cfg.deltaEnabled || !cfg.deltaScoring {
		t.Fatalf("WithExact then WithDeltaScoring: delta ingest %v, delta scoring %v", cfg.deltaEnabled, cfg.deltaScoring)
	}
}

// TestOldExactSnapshotsResumeExact: snapshots of the older encodings that
// record the delta flags (v2: delta ingest; v3: delta scoring too) as off
// resume as exact sessions, whatever the current default: the resumed
// session re-encodes to the fixture's v4 bytes and keeps running without
// delta iterations.
func TestOldExactSnapshotsResumeExact(t *testing.T) {
	want := readFixture(t, "exact-session-v4.cvsn")
	for _, name := range []string{"exact-session-v2.cvsn", "exact-session-v3.cvsn"} {
		s, err := ResumeSession(readFixture(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.DeltaIngestEnabled() {
			t.Fatalf("%s resumed on the delta ingest path", name)
		}
		got, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s re-encodes to %d bytes that differ from the v4 fixture (%d bytes)", name, len(got), len(want))
		}
		o, err := s.NextObject()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SubmitValidation(o, 0); err != nil {
			t.Fatal(err)
		}
		if n := s.Counters().DeltaIterations; n != 0 {
			t.Fatalf("%s: the resumed session ran %d delta iterations", name, n)
		}
	}
}
