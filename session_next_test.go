package crowdval

import (
	"context"
	"math/rand"
	"testing"

	"crowdval/internal/guidance"
	"crowdval/internal/simulation"
)

// nextTestDataset builds a deterministic synthetic crowd for selection tests.
func nextTestDataset(t *testing.T, objects, workers int, seed int64) *simulation.Dataset {
	t.Helper()
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects:       objects,
		NumWorkers:       workers,
		NumLabels:        2,
		AnswersPerObject: 5,
		NormalAccuracy:   0.7,
		Mix:              simulation.WorkerMix{Normal: 0.75, RandomSpammer: 0.25},
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// seedHistory drives a session through a deterministic mixed history of
// ingests and validations so selection tests run against a warm, non-trivial
// state.
func seedHistory(t *testing.T, s *Session, d *simulation.Dataset, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	for step := 0; step < 4; step++ {
		answers := make([]Answer, 10)
		for i := range answers {
			answers[i] = Answer{
				Object: rng.Intn(s.NumObjects()),
				Worker: rng.Intn(s.NumWorkers()),
				Label:  Label(rng.Intn(s.NumLabels())),
			}
		}
		if err := s.AddAnswers(ctx, answers); err != nil {
			t.Fatal(err)
		}
		object, err := s.NextObject()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SubmitValidation(object, d.Truth[object]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNextObjectsDeterministicAcrossParallelismAndResume: seeded histories
// produce identical rankings whether scoring runs serial or parallel, exact
// or delta, and whether the session ran straight through or was
// snapshotted/resumed mid-stream — incl. tie-break order, which the ranking
// contract pins to (score desc, object asc).
func TestNextObjectsDeterministicAcrossParallelismAndResume(t *testing.T) {
	d := nextTestDataset(t, 60, 12, 1)
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"exact", []Option{WithExact()}},
		{"delta-scored", []Option{WithDeltaScoring()}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			build := func(extra ...Option) *Session {
				opts := append([]Option{WithStrategy(StrategyHybrid), WithSeed(3)}, mode.opts...)
				opts = append(opts, extra...)
				s, err := NewSession(d.Answers.Clone(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				seedHistory(t, s, d, 11)
				return s
			}
			serial := build(WithParallelism(1))
			parallel := build(WithParallelScoring(), WithParallelism(4))

			serialRank, err := serial.NextObjects(6)
			if err != nil {
				t.Fatal(err)
			}
			parallelRank, err := parallel.NextObjects(6)
			if err != nil {
				t.Fatal(err)
			}
			if len(serialRank) != 6 {
				t.Fatalf("ranking has %d entries, want 6", len(serialRank))
			}
			for i := range serialRank {
				if serialRank[i] != parallelRank[i] {
					t.Fatalf("serial ranking %v != parallel %v", serialRank, parallelRank)
				}
			}
			for i := 1; i < len(serialRank); i++ {
				prev, cur := serialRank[i-1], serialRank[i]
				if prev.Score < cur.Score || (prev.Score == cur.Score && prev.Object > cur.Object) {
					t.Fatalf("ranking order violated: %v", serialRank)
				}
			}

			// Snapshot/resume continues the exact ranking stream: a resumed
			// session's next selection is bit-identical (rankings consume one
			// roulette draw, so compare after a fresh snapshot).
			snap, err := serial.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeSession(snap)
			if err != nil {
				t.Fatal(err)
			}
			wantRank, err := serial.NextObjects(4)
			if err != nil {
				t.Fatal(err)
			}
			gotRank, err := resumed.NextObjects(4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantRank {
				if gotRank[i] != wantRank[i] {
					t.Fatalf("resumed ranking %v != original %v", gotRank, wantRank)
				}
			}
		})
	}
}

// TestNextObjectAndNextObjectsShareStream: NextObjects consumes exactly the
// pseudo-random state of NextObject, so sessions mixing the two stay aligned
// with sessions using either exclusively.
func TestNextObjectAndNextObjectsShareStream(t *testing.T) {
	d := nextTestDataset(t, 40, 10, 2)
	mk := func() *Session {
		s, err := NewSession(d.Answers.Clone(), WithStrategy(StrategyHybrid), WithSeed(5), WithDeltaScoring())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	single, batched := mk(), mk()
	for step := 0; step < 3; step++ {
		object, err := single.NextObject()
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := batched.NextObjects(3)
		if err != nil {
			t.Fatal(err)
		}
		if ranked[0].Object != object {
			t.Fatalf("step %d: NextObject = %d, NextObjects[0] = %d", step, object, ranked[0].Object)
		}
		if _, err := single.SubmitValidation(object, d.Truth[object]); err != nil {
			t.Fatal(err)
		}
		if _, err := batched.SubmitValidation(object, d.Truth[object]); err != nil {
			t.Fatal(err)
		}
	}
	a, err := single.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batched.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("mixed single/batched selection diverged the snapshot state")
	}
}

// replayHistory drives a session through a deterministic, mode-independent
// history: rng-chosen ingest batches and rng-chosen validated objects (not
// NextObject picks, which would make the histories of sessions with different
// scoring modes diverge before the comparison).
func replayHistory(t *testing.T, s *Session, d *simulation.Dataset, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	for step := 0; step < 4; step++ {
		answers := make([]Answer, 10)
		for i := range answers {
			answers[i] = Answer{
				Object: rng.Intn(s.NumObjects()),
				Worker: rng.Intn(s.NumWorkers()),
				Label:  Label(rng.Intn(s.NumLabels())),
			}
		}
		if err := s.AddAnswers(ctx, answers); err != nil {
			t.Fatal(err)
		}
		object := rng.Intn(s.NumObjects())
		for s.Validation().Validated(object) {
			object = (object + 1) % s.NumObjects()
		}
		if _, err := s.SubmitValidation(object, d.Truth[object]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaScoringSelectionParity gates the session-level exact-vs-delta
// selection contract at its documented tolerances. The delta scorer is a
// first-order estimate: it prices each hypothesis' local ripple exactly but
// cannot see the global re-convergence cascades the exact warm EM sometimes
// runs into (see internal/aggregation/scoreindex.go), so the gate is
// statistical, on the *regret* of the delta pick — the exact information
// gain it forgoes relative to the exact optimum, measured on the identical
// state (both sessions replay the same history):
//
//   - per seed, the regret must stay below maxRegret = 0.75 nats;
//   - across seeds, the mean regret must stay below meanRegret = 0.35 nats
//     (observed mean ≈ 0.16 on these states, so the gate trips on real
//     estimator erosion, not noise).
//
// The per-hypothesis accuracy contract — delta H(P | o) within 5e-2 of exact
// on locally-acting states — is pinned separately by the aggregation and
// guidance suites.
func TestDeltaScoringSelectionParity(t *testing.T) {
	const (
		maxRegret  = 0.75
		meanRegret = 0.35
		seeds      = 6
	)
	total := 0.0
	for seed := int64(1); seed <= seeds; seed++ {
		d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
			NumObjects: 300, NumWorkers: 60, NumLabels: 2,
			AnswersPerObject: 5, NormalAccuracy: 0.85,
			Mix:  simulation.WorkerMix{Normal: 0.85, RandomSpammer: 0.15},
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		build := func(opts ...Option) *Session {
			base := append([]Option{WithStrategy(StrategyUncertainty), WithSeed(7), WithCandidateLimit(12)}, opts...)
			s, err := NewSession(d.Answers.Clone(), base...)
			if err != nil {
				t.Fatal(err)
			}
			replayHistory(t, s, d, 23)
			return s
		}
		exact := build()
		delta := build(WithDeltaScoring())

		exactRank, err := exact.NextObjects(5)
		if err != nil {
			t.Fatal(err)
		}
		deltaRank, err := delta.NextObjects(5)
		if err != nil {
			t.Fatal(err)
		}
		if exactRank[0].Object == deltaRank[0].Object {
			continue
		}
		// The two sessions hold identical states (same replayed history), so
		// the exact scorer prices the delta pick's true information gain.
		// Exact scores are information gains already.
		p := exact.ProbabilisticResult()
		gctx := &guidance.Context{Answers: p.Answers, ProbSet: p}
		ig, err := guidance.InformationGain(gctx, deltaRank[0].Object, -1)
		if err != nil {
			t.Fatal(err)
		}
		regret := exactRank[0].Score - ig
		total += regret
		if regret > maxRegret {
			t.Fatalf("seed %d: delta pick %d (exact IG %v) vs exact pick %d (IG %v): regret exceeds %v",
				seed, deltaRank[0].Object, ig, exactRank[0].Object, exactRank[0].Score, maxRegret)
		}
	}
	if mean := total / seeds; mean > meanRegret {
		t.Fatalf("mean selection regret %v exceeds %v", mean, meanRegret)
	}
}

// TestWithDeltaScoringSurvivesSnapshot: the scoring mode is part of the
// snapshot, so a parked-and-resumed session keeps serving delta-scored
// selections.
func TestWithDeltaScoringSurvivesSnapshot(t *testing.T) {
	d := nextTestDataset(t, 30, 8, 4)
	s, err := NewSession(d.Answers, WithStrategy(StrategyUncertainty), WithDeltaScoring(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.cfg.deltaScoring {
		t.Fatal("delta scoring lost in snapshot round trip")
	}
	want, err := s.NextObjects(3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.NextObjects(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed ranking %v != original %v", got, want)
		}
	}
}
