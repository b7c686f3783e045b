package core

import (
	"context"
	"math/rand"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/guidance"
)

// hybridEngine builds a delta-scoring hybrid engine whose roulette draws
// both branches.
func hybridEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	h := &guidance.Hybrid{
		Uncertainty: &guidance.UncertaintyDriven{},
		Worker:      &guidance.WorkerDriven{},
		Rand:        rand.New(rand.NewSource(seed)),
	}
	h.SetWeight(0.5)
	e, err := NewEngineContext(context.Background(), selectKAnswers(t, 80, 9), Config{
		Strategy:     h,
		Delta:        aggregation.DeltaConfig{Enabled: true},
		DeltaScoring: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRankingMemoKeyedByRole: a hybrid engine's memo carries one ranking per
// branch, keyed by role, and an engine with other strategy instances over
// the same state installs each under its own branch instance, so its
// selections are memo hits with no index build.
func TestRankingMemoKeyedByRole(t *testing.T) {
	from := hybridEngine(t, 1)
	for i := 0; i < 12; i++ {
		if _, err := from.SelectNextKContext(context.Background(), 5); err != nil {
			t.Fatal(err)
		}
	}
	memo := from.TakeRankingMemo()
	if memo == nil || len(memo.entries) != 2 {
		t.Fatalf("memo %+v, want the uncertainty and worker roles", memo)
	}
	if len(from.rankCache) != 0 {
		t.Fatal("the engine kept a taken memo")
	}
	if from.TakeRankingMemo() != nil {
		t.Fatal("a second take found rankings")
	}

	to := hybridEngine(t, 2)
	if !to.InstallRankingMemo(memo) {
		t.Fatal("an engine over the same state refused the memo")
	}
	if _, ok := to.rankCache[to.hybrid.Uncertainty]; !ok {
		t.Fatal("uncertainty branch memo not installed under the engine's own instance")
	}
	if _, ok := to.rankCache[to.hybrid.Worker]; !ok {
		t.Fatal("worker branch memo not installed under the engine's own instance")
	}
	for i := 0; i < 12; i++ {
		if _, err := to.SelectNextKContext(context.Background(), 5); err != nil {
			t.Fatal(err)
		}
	}
	wantStats(t, to, 0, 0, "selections served from an installed memo")

	// A memo does not cross strategies: a plain uncertainty engine over the
	// same answers refuses the hybrid's memo.
	plain, err := NewEngineContext(context.Background(), selectKAnswers(t, 80, 9), Config{
		Strategy:     &guidance.UncertaintyDriven{},
		Delta:        aggregation.DeltaConfig{Enabled: true},
		DeltaScoring: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.InstallRankingMemo(memo) {
		t.Fatal("a non-hybrid engine adopted a hybrid memo")
	}
	if plain.InstallRankingMemo(nil) {
		t.Fatal("the nil memo was adopted")
	}
}
