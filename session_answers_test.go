package crowdval

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"crowdval/internal/snapshot"
)

// These tests pin who owns a session's answers: NewSession works on its own
// copy of the caller's set, and a quarantined worker's answers live only in
// the quarantine stash, which snapshots merge back in object-major,
// worker-ascending order.

// mustSnapshot returns s's snapshot, turning a panic into a test failure.
func mustSnapshot(t *testing.T, s *Session) (data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Snapshot panicked: %v", r)
		}
	}()
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSessionsFromOneAnswerSetAreIndependent: two sessions built from one
// answer set do not see each other's ingests; a growing AddAnswers on one
// leaves the other's snapshot byte for byte as it was.
func TestSessionsFromOneAnswerSetAreIndependent(t *testing.T) {
	d, err := GenerateCrowd(CrowdConfig{NumObjects: 30, NumWorkers: 8, NumLabels: 2,
		AnswersPerObject: 4, NormalAccuracy: 0.75, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	session, err := NewSession(d.Answers)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewSession(d.Answers, WithExact())
	if err != nil {
		t.Fatal(err)
	}
	before := mustSnapshot(t, exact)
	if err := session.AddAnswers(context.Background(), []Answer{
		{Object: 30, Worker: 8, Label: 1}, {Object: 31, Worker: 2, Label: 0},
	}); err != nil {
		t.Fatal(err)
	}
	if got := session.NumObjects(); got != 32 {
		t.Fatalf("ingesting session covers %d objects, want 32", got)
	}
	if n, c := exact.NumObjects(), exact.AnswerCount(); n != 30 || c != 120 {
		t.Fatalf("other session: %d objects, %d answers after the ingest; want 30, 120", n, c)
	}
	if after := mustSnapshot(t, exact); !bytes.Equal(after, before) {
		t.Fatal("another session's ingest changed this session's snapshot")
	}
}

// TestNewSessionCopiesAnswers: the session neither writes to the caller's
// answer set nor sees later writes to it.
func TestNewSessionCopiesAnswers(t *testing.T) {
	d := spammyCrowd(t, 20, 6, 3)
	a := d.Answers
	n, k, count := a.NumObjects(), a.NumWorkers(), a.AnswerCount()
	s, err := NewSession(a, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddAnswers(context.Background(), []Answer{
		{Object: n, Worker: k, Label: 1}, {Object: 0, Worker: k, Label: 0},
	}); err != nil {
		t.Fatal(err)
	}
	if a.NumObjects() != n || a.NumWorkers() != k || a.AnswerCount() != count {
		t.Fatalf("the caller's set is %v after the session's ingest; want %d×%d with %d answers",
			a, n, k, count)
	}
	wantCount := s.AnswerCount()
	if wantCount != count+2 {
		t.Fatalf("session holds %d answers, want %d", wantCount, count+2)
	}
	before := mustSnapshot(t, s)
	// Relabel one answer of the caller's set and remove another.
	if err := a.SetAnswer(0, 0, 1-a.Answer(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.SetAnswer(1, 0, NoLabel); err != nil {
		t.Fatal(err)
	}
	if a.AnswerCount() != count-1 {
		t.Fatal("the test did not remove an answer from the caller's set")
	}
	if got := s.AnswerCount(); got != wantCount {
		t.Fatalf("a write to the caller's set moved the session's answer count from %d to %d", wantCount, got)
	}
	if after := mustSnapshot(t, s); !bytes.Equal(after, before) {
		t.Fatal("a write to the caller's set changed the session's snapshot")
	}
}

// quarantineStream replays a seeded worker-driven session until it has
// quarantined a worker, then ingests three batches: one overwrites an answer
// of that worker, the next overwrites it again and gives the worker a new
// object, and the last adds a new worker.
func quarantineStream(t *testing.T) *Session {
	t.Helper()
	d := spammyCrowd(t, 25, 10, 7)
	s, err := NewSession(d.Answers, WithStrategy(StrategyWorker), WithBudget(20), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, s, d.Truth, 15)
	quarantined := s.QuarantinedWorkers()
	if len(quarantined) == 0 {
		t.Fatal("the stream quarantined nobody")
	}
	w := quarantined[0]
	o := d.Answers.WorkerObjects(w)[0]
	l := d.Answers.Answer(o, w)
	for _, batch := range [][]Answer{
		{{Object: o, Worker: w, Label: 1 - l}},
		{{Object: o, Worker: w, Label: l}, {Object: 25, Worker: w, Label: 1}},
		{{Object: o, Worker: 10, Label: 0}, {Object: 25, Worker: 10, Label: 1}},
	} {
		if err := s.AddAnswers(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.QuarantinedWorkers(); len(got) == 0 || got[0] != w {
		t.Fatalf("quarantine %v no longer holds worker %d", got, w)
	}
	return s
}

// TestQuarantineSnapshotMatchesFixture: with a worker quarantined and its
// stash overwritten and grown, the session snapshots to the state
// testdata/quarantine-session-v4.cvsn holds (written by the earlier engine,
// which kept a second, unmasked copy of the answers), encoded as
// testdata/quarantine-session-v5.cvsn. It counts the answers the fixture
// holds, and the sessions resumed from either fixture re-encode to the v5
// bytes, keep the quarantine and select the same next objects.
func TestQuarantineSnapshotMatchesFixture(t *testing.T) {
	v4, v5 := readFixture(t, "quarantine-session-v4.cvsn"), readFixture(t, "quarantine-session-v5.cvsn")
	st, err := snapshot.Decode(v4)
	if err != nil {
		t.Fatal(err)
	}
	s := quarantineStream(t)
	if got, want := s.AnswerCount(), len(st.AnswerObjects); got != want {
		t.Fatalf("session holds %d answers, the fixture %d", got, want)
	}
	matchesFixture(t, mustSnapshot(t, s), "quarantine-session")
	for _, fixture := range [][]byte{v4, v5} {
		resumed, err := ResumeSession(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if got := resumed.AnswerCount(); got != len(st.AnswerObjects) {
			t.Fatalf("resumed session holds %d answers, the fixture %d", got, len(st.AnswerObjects))
		}
		if got := mustSnapshot(t, resumed); !bytes.Equal(got, v5) {
			t.Fatal("the resumed session re-encodes to bytes other than the v5 fixture's")
		}
		if !slices.Equal(resumed.QuarantinedWorkers(), s.QuarantinedWorkers()) {
			t.Fatalf("resumed quarantine %v, want %v", resumed.QuarantinedWorkers(), s.QuarantinedWorkers())
		}
	}
	sameNextSelections(t, v4, v5)
}
