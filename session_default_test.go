package crowdval

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"crowdval/internal/snapshot"
)

// These tests pin the session modes: delta ingest and delta scoring are the
// default, WithExact is the one opt-out, and exact sessions are byte for
// byte what option-less sessions were before the default changed. The
// testdata/exact-session-v{2,3,4}.cvsn fixtures were written by that
// earlier code: v4 is the snapshot of defaultModeStream without options, v2
// and v3 are the same snapshot cut back to the older encodings (without the
// budget tail, and without the delta-scoring flag too, for v2).
// exact-session-v5.cvsn is the v4 fixture's state in encoding version 5,
// whose integer arrays are packed.

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

// matchesFixture checks a session's snapshot against the two fixtures of
// one state: <name>-v4.cvsn, written before encoding version 5, and
// <name>-v5.cvsn. The snapshot's bytes equal the v5 fixture's, and its
// decoded state equals the v4 fixture's field by field.
func matchesFixture(t *testing.T, got []byte, name string) {
	t.Helper()
	if want := readFixture(t, name+"-v5.cvsn"); !bytes.Equal(got, want) {
		t.Fatalf("snapshot (%d bytes) differs from %s-v5.cvsn (%d bytes)", len(got), name, len(want))
	}
	want, err := snapshot.Decode(readFixture(t, name+"-v4.cvsn"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("snapshot decodes to a state that differs from %s-v4.cvsn's:\n got  %+v\n want %+v", name, st, want)
	}
}

// sameNextSelections resumes one session from each snapshot and checks
// that the two rank the same objects with the same scores over three
// rounds, each followed by the same validation of the head.
func sameNextSelections(t *testing.T, a, b []byte) {
	t.Helper()
	sa, err := ResumeSession(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ResumeSession(b)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		na, errA := sa.NextObjects(3)
		nb, errB := sb.NextObjects(3)
		if (errA == nil) != (errB == nil) || !slices.Equal(na, nb) {
			t.Fatalf("round %d: selections %v (%v) and %v (%v) differ", round, na, errA, nb, errB)
		}
		if errA != nil {
			return
		}
		_, errA = sa.SubmitValidation(na[0].Object, 0)
		_, errB = sb.SubmitValidation(na[0].Object, 0)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("round %d: validations fail with %v and %v", round, errA, errB)
		}
	}
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
// iteration and ends, on a seeded stream, in the state an option-less
// session produced before delta became the default: the v4 fixture's state,
// encoded as the v5 fixture, with the same next selections once resumed.
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
	matchesFixture(t, got, "exact-session")
	sameNextSelections(t, got, readFixture(t, "exact-session-v4.cvsn"))

	// WithExact opts out of both paths; a later delta option turns its own
	// path back on.
	cfg := defaultSessionConfig()
	cfg.apply([]Option{WithExact(), WithDeltaScoring()})
	if cfg.deltaEnabled || !cfg.deltaScoring {
		t.Fatalf("WithExact then WithDeltaScoring: delta ingest %v, delta scoring %v", cfg.deltaEnabled, cfg.deltaScoring)
	}
}

// TestOldExactSnapshotsResumeExact: snapshots of the older encodings that
// record the delta flags (v2: delta ingest; v3: delta scoring too; v4:
// both, and the budget tail) as off resume as exact sessions, whatever the
// current default: the resumed session re-encodes to the v5 fixture's bytes
// and keeps running without delta iterations.
func TestOldExactSnapshotsResumeExact(t *testing.T) {
	want := readFixture(t, "exact-session-v5.cvsn")
	for _, name := range []string{"exact-session-v2.cvsn", "exact-session-v3.cvsn", "exact-session-v4.cvsn"} {
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
			t.Fatalf("%s re-encodes to %d bytes that differ from the v5 fixture (%d bytes)", name, len(got), len(want))
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
