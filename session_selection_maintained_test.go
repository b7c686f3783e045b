package crowdval

import (
	"context"
	"math/rand"
	"testing"
)

// Metamorphic selection tests for the maintained scoring view: a session
// serving selections from the maintained index and memoized rankings
// (the default) must produce bit-identical rankings to a twin session that
// rebuilds its scoring state from scratch on every use
// (WithoutSelectionCache), across every strategy, arbitrary interleavings of
// ingests/validations/selections, and snapshot/resume boundaries. The cache
// is a pure performance knob; these tests are the contract that keeps it one.

// maintainedPairHistory drives the maintained and rebuild sessions through an
// identical deterministic history, comparing every ranking bit for bit. Both
// sessions consume selections in the same order, so stateful strategies
// (hybrid roulette) stay stream-aligned. Returns the step count executed.
func maintainedPairHistory(t *testing.T, maintained, rebuild *Session, d *Dataset, seed int64, resumeMid bool) *Session {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	for step := 0; step < 10; step++ {
		switch step % 3 {
		case 0: // ingest the same batch into both
			answers := make([]Answer, 6)
			for i := range answers {
				answers[i] = Answer{
					Object: rng.Intn(maintained.NumObjects()),
					Worker: rng.Intn(maintained.NumWorkers()),
					Label:  Label(rng.Intn(maintained.NumLabels())),
				}
			}
			if err := maintained.AddAnswers(ctx, answers); err != nil {
				t.Fatal(err)
			}
			if err := rebuild.AddAnswers(ctx, answers); err != nil {
				t.Fatal(err)
			}
		case 1: // validate the same rng-chosen object in both
			object := rng.Intn(maintained.NumObjects())
			for maintained.Validation().Validated(object) {
				object = (object + 1) % maintained.NumObjects()
			}
			if _, err := maintained.SubmitValidation(object, d.Truth[object]); err != nil {
				t.Fatal(err)
			}
			if _, err := rebuild.SubmitValidation(object, d.Truth[object]); err != nil {
				t.Fatal(err)
			}
		case 2: // single selection on both (consumes one draw under hybrid)
			a, err := maintained.NextObject()
			if err != nil {
				t.Fatal(err)
			}
			b, err := rebuild.NextObject()
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("step %d: maintained NextObject = %d, rebuild = %d", step, a, b)
			}
		}

		// Ranked selection after every operation, with a k that varies and
		// repeats (repeats hit the memoized ranking on the maintained side).
		k := 1 + rng.Intn(6)
		for rep := 0; rep < 2; rep++ {
			a, err := maintained.NextObjects(k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := rebuild.NextObjects(k)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("step %d: ranking lengths %d vs %d", step, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("step %d k=%d rep %d: maintained ranking %v != rebuild %v", step, k, rep, a, b)
				}
			}
		}

		if resumeMid && step == 5 {
			// Resume the maintained session from a snapshot mid-history: the
			// maintained index dies with the process, and the resumed session
			// must rebuild it without disturbing the selection stream.
			snap, err := maintained.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			maintained, err = ResumeSession(snap)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return maintained
}

// TestMaintainedSelectionMatchesRebuildAllStrategies is the session-level
// metamorphic gate, one subtest per strategy.
func TestMaintainedSelectionMatchesRebuildAllStrategies(t *testing.T) {
	for _, strategy := range []StrategyName{
		StrategyHybrid, StrategyUncertainty, StrategyWorker, StrategyBaseline, StrategyRandom,
	} {
		t.Run(string(strategy), func(t *testing.T) {
			t.Parallel()
			d := nextTestDataset(t, 40, 10, 7)
			build := func(extra ...Option) *Session {
				opts := []Option{
					WithStrategy(strategy), WithSeed(13), WithCandidateLimit(16),
					WithDeltaIngest(), WithDeltaScoring(),
				}
				s, err := NewSession(d.Answers.Clone(), append(opts, extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			maintained := build()
			rebuild := build(WithoutSelectionCache())
			maintained = maintainedPairHistory(t, maintained, rebuild, d, 29, true)

			// WithoutSelectionCache is not session state: after identical
			// histories both snapshots must be byte-identical, which also
			// proves the hybrid roulette streams stayed aligned across every
			// cache hit and miss.
			a, err := maintained.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := rebuild.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatal("maintained and rebuild sessions diverged: snapshots differ after identical histories")
			}

			// The cache-disabled twin must never patch its index.
			if patches := rebuild.Counters().ScoreIndexPatches; patches != 0 {
				t.Fatalf("rebuild session patched its index %d times with the cache disabled", patches)
			}
		})
	}
}

// TestMaintainedSelectionPatchesNotRebuilds: across the same history, the
// maintained session must actually exercise the patch path — otherwise the
// suite above compares rebuilds against rebuilds and proves nothing.
func TestMaintainedSelectionPatchesNotRebuilds(t *testing.T) {
	d := nextTestDataset(t, 40, 10, 8)
	build := func(extra ...Option) *Session {
		opts := []Option{
			WithStrategy(StrategyUncertainty), WithSeed(17), WithCandidateLimit(16),
			WithDeltaIngest(), WithDeltaScoring(),
		}
		s, err := NewSession(d.Answers.Clone(), append(opts, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	maintained := build()
	rebuild := build(WithoutSelectionCache())
	maintainedPairHistory(t, maintained, rebuild, d, 31, false)

	c := maintained.Counters()
	builds, patches := c.ScoreIndexBuilds, c.ScoreIndexPatches
	if patches == 0 {
		t.Fatalf("maintained session never patched its index (builds=%d)", builds)
	}
	if builds > 2 {
		// One cold build; delta-settled mutations must patch. (A second
		// build is tolerated for a legitimate full-path fallback on an
		// oversized frontier.)
		t.Fatalf("maintained session rebuilt %d times across a delta-settled history", builds)
	}
}

// TestSelectionTieBreakScoreDescObjectAsc: objects with bitwise-identical
// answer rows score identically, and the ranking contract breaks such ties
// toward the smaller object id — on both the maintained and the rebuild
// path.
func TestSelectionTieBreakScoreDescObjectAsc(t *testing.T) {
	// Six objects in two identical-row triplets: {0,2,4} and {1,3,5}.
	matrix := [][]int{
		{0, 0, 1, -1},
		{1, 0, 0, 1},
		{0, 0, 1, -1},
		{1, 0, 0, 1},
		{0, 0, 1, -1},
		{1, 0, 0, 1},
	}
	for _, strategy := range []StrategyName{StrategyBaseline, StrategyUncertainty} {
		t.Run(string(strategy), func(t *testing.T) {
			for _, noCache := range []bool{false, true} {
				answers, err := NewAnswerSetFromMatrix(matrix, 2)
				if err != nil {
					t.Fatal(err)
				}
				opts := []Option{WithStrategy(strategy), WithSeed(1), WithDeltaIngest(), WithDeltaScoring()}
				if noCache {
					opts = append(opts, WithoutSelectionCache())
				}
				s, err := NewSession(answers, opts...)
				if err != nil {
					t.Fatal(err)
				}
				ranked, err := s.NextObjects(6)
				if err != nil {
					t.Fatal(err)
				}
				if len(ranked) != 6 {
					t.Fatalf("ranking has %d entries, want 6", len(ranked))
				}
				for i := 1; i < len(ranked); i++ {
					prev, cur := ranked[i-1], ranked[i]
					if prev.Score < cur.Score {
						t.Fatalf("noCache=%v: scores not descending: %v", noCache, ranked)
					}
					if prev.Score == cur.Score && prev.Object > cur.Object {
						t.Fatalf("noCache=%v: tie not broken toward smaller object: %v", noCache, ranked)
					}
				}
				// The identical-row triplets must actually tie, and within
				// each tie the objects must appear in ascending order.
				byObject := map[int]float64{}
				for _, r := range ranked {
					byObject[r.Object] = r.Score
				}
				for _, triplet := range [][]int{{0, 2, 4}, {1, 3, 5}} {
					if byObject[triplet[0]] != byObject[triplet[1]] || byObject[triplet[1]] != byObject[triplet[2]] {
						t.Fatalf("noCache=%v: identical rows scored differently: %v", noCache, ranked)
					}
				}
			}
		})
	}
}
