package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"crowdval/internal/cverr"
	"crowdval/internal/guidance"
	"crowdval/internal/model"
)

// selectKAnswers builds a small binary crowd with ambiguity so rankings are
// non-trivial.
func selectKAnswers(t *testing.T, n int, seed int64) *model.AnswerSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := model.MustNewAnswerSet(n, 4, 2)
	for o := 0; o < n; o++ {
		truth := model.Label(o % 2)
		for w := 0; w < 3; w++ {
			l := truth
			if rng.Float64() > 0.8 {
				l = model.Label(1 - int(l))
			}
			if err := a.SetAnswer(o, w, l); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.SetAnswer(o, 3, model.Label(rng.Intn(2))); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// TestSelectNextKMatchesSelectNext: the ranking's first element is the
// SelectNext pick, for both scoring modes, and both consume the same
// pseudo-random state under the hybrid strategy.
func TestSelectNextKMatchesSelectNext(t *testing.T) {
	answers := selectKAnswers(t, 12, 1)
	for _, deltaScoring := range []bool{false, true} {
		single, err := NewEngineContext(context.Background(), answers, Config{
			Strategy:     &guidance.Hybrid{Rand: rand.New(rand.NewSource(5))},
			DeltaScoring: deltaScoring,
		})
		if err != nil {
			t.Fatal(err)
		}
		batched, err := NewEngineContext(context.Background(), answers, Config{
			Strategy:     &guidance.Hybrid{Rand: rand.New(rand.NewSource(5))},
			DeltaScoring: deltaScoring,
		})
		if err != nil {
			t.Fatal(err)
		}
		object, err := single.SelectNextContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := batched.SelectNextKContext(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) != 4 || ranked[0].Object != object {
			t.Fatalf("delta=%v: SelectNext = %d, SelectNextK = %v", deltaScoring, object, ranked)
		}
		// Repeated selection without integration is stable: no state moved
		// besides the (identically consumed) roulette draw.
		again, err := single.SelectNextKContext(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ranked {
			if again[i] != ranked[i] {
				t.Fatalf("delta=%v: repeat ranking %v != %v", deltaScoring, again, ranked)
			}
		}
	}
}

// TestSelectNextKPreconditions mirrors SelectNext's error taxonomy.
func TestSelectNextKPreconditions(t *testing.T) {
	answers := selectKAnswers(t, 6, 2)
	e, err := NewEngineContext(context.Background(), answers, Config{Strategy: &guidance.Baseline{}, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SelectNextKContext(context.Background(), 0); !errors.Is(err, cverr.ErrOutOfRange) {
		t.Fatalf("k=0: %v, want ErrOutOfRange", err)
	}
	// Ranking may exceed the remaining budget; effort gates integration.
	ranked, err := e.SelectNextKContext(context.Background(), 4)
	if err != nil || len(ranked) != 4 {
		t.Fatalf("ranked = %v (%v)", ranked, err)
	}
	if _, err := e.IntegrateContext(context.Background(), ranked[0].Object, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SelectNextKContext(context.Background(), 2); !errors.Is(err, cverr.ErrBudgetExhausted) {
		t.Fatalf("budget spent: %v, want ErrBudgetExhausted", err)
	}

	done, err := NewEngineContext(context.Background(), answers, Config{Strategy: &guidance.Baseline{}, Goal: func(*Engine) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := done.SelectNextKContext(context.Background(), 2); !errors.Is(err, cverr.ErrSessionDone) {
		t.Fatalf("goal reached: %v, want ErrSessionDone", err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	e2, err := NewEngineContext(context.Background(), answers, Config{Strategy: &guidance.UncertaintyDriven{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.SelectNextKContext(cancelled, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: %v, want context.Canceled", err)
	}
}

// TestSelectNextKClampsToCandidates: k beyond the unvalidated count returns
// every remaining candidate.
func TestSelectNextKClampsToCandidates(t *testing.T) {
	answers := selectKAnswers(t, 5, 3)
	e, err := NewEngineContext(context.Background(), answers, Config{Strategy: &guidance.UncertaintyDriven{}})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := e.SelectNextKContext(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 5 {
		t.Fatalf("ranking has %d entries, want 5", len(ranked))
	}
	seen := map[int]bool{}
	for _, s := range ranked {
		if seen[s.Object] {
			t.Fatalf("duplicate object in ranking: %v", ranked)
		}
		seen[s.Object] = true
	}
}

// TestConcurrentSelectionsAreSafe: selections are read-only apart from the
// locked strategy prologue, so concurrent SelectNextK calls (a serving tier's
// read-locked next endpoint) must be race-free and each return a valid
// ranking. Run under -race in CI.
func TestConcurrentSelectionsAreSafe(t *testing.T) {
	answers := selectKAnswers(t, 20, 4)
	e, err := NewEngineContext(context.Background(), answers, Config{DeltaScoring: true, Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	ranks := make([][]guidance.ScoredObject, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ranks[g], errs[g] = e.SelectNextKContext(context.Background(), 3)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if len(ranks[g]) != 3 {
			t.Fatalf("goroutine %d: ranking %v", g, ranks[g])
		}
	}
}

// TestDeltaScoringEngineAgreesWithExact: engine-level parity between the two
// scoring modes under the uncertainty strategy — same documented tolerance as
// the guidance-level gate.
func TestDeltaScoringEngineAgreesWithExact(t *testing.T) {
	answers := selectKAnswers(t, 16, 5)
	exact, err := NewEngineContext(context.Background(), answers, Config{Strategy: &guidance.UncertaintyDriven{}})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := NewEngineContext(context.Background(), answers, Config{Strategy: &guidance.UncertaintyDriven{}, DeltaScoring: true})
	if err != nil {
		t.Fatal(err)
	}
	exactPick, err := exact.SelectNextContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	deltaPick, err := delta.SelectNextContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if exactPick == deltaPick {
		return
	}
	// Disagreement is allowed only within the documented information-gain
	// tolerance, measured with the exact scorer.
	gctx := exact.guidanceContext(context.Background())
	igExact, err := guidance.InformationGain(gctx, exactPick, -1)
	if err != nil {
		t.Fatal(err)
	}
	igDelta, err := guidance.InformationGain(gctx, deltaPick, -1)
	if err != nil {
		t.Fatal(err)
	}
	if igExact-igDelta > 5e-2 {
		t.Fatalf("delta pick %d (exact IG %v) vs exact pick %d (IG %v): gap exceeds 5e-2",
			deltaPick, igDelta, exactPick, igExact)
	}
}
