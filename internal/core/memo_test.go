package core

import (
	"context"
	"math/rand"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/cost"
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
// branch, indexed by role, and an engine with other strategy instances over
// the same state installs each under the same role, so its selections are
// memo hits with no index build.
func TestRankingMemoKeyedByRole(t *testing.T) {
	from := hybridEngine(t, 1)
	for i := 0; i < 12; i++ {
		if _, err := from.SelectNextKContext(context.Background(), 5); err != nil {
			t.Fatal(err)
		}
	}
	memo := from.TakeRankingMemo()
	if memo == nil || memo.entries[roleUncertainty] == nil || memo.entries[roleWorker] == nil ||
		memo.entries[roleStrategy] != nil {
		t.Fatalf("memo %+v, want the uncertainty and worker roles", memo)
	}
	if from.rankCache != (rankings{}) {
		t.Fatal("the engine kept a taken memo")
	}
	if from.TakeRankingMemo() != nil {
		t.Fatal("a second take found rankings")
	}

	to := hybridEngine(t, 2)
	if !to.InstallRankingMemo(memo) {
		t.Fatal("an engine over the same state refused the memo")
	}
	if to.rankCache != memo.entries {
		t.Fatal("the branch memos were not installed under their roles")
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

// TestRankingMemoWithoutBranchInstances: the default strategy is a hybrid
// without branch instances, whose every draw runs a fresh scorer; its
// rankings are still memoized under the branch's role, so a repeated
// selection scores no candidate.
func TestRankingMemoWithoutBranchInstances(t *testing.T) {
	e, err := NewEngineContext(context.Background(), selectKAnswers(t, 80, 9), Config{
		Delta:        aggregation.DeltaConfig{Enabled: true},
		DeltaScoring: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SelectNextKContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	scored := e.Counters().RankCandidatesScored
	if _, err := e.SelectNextKContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().RankCandidatesScored; got != scored {
		t.Fatalf("the repeated selection scored %d candidates", got-scored)
	}
	if memo := e.TakeRankingMemo(); memo == nil || memo.entries[roleUncertainty] == nil {
		t.Fatalf("memo %+v, want the uncertainty branch's ranking", memo)
	}
}

// TestRankingMemoTop: a taken memo answers a selection on its own exactly
// when a selection of its state on the engine would serve the memoized
// ranking and change nothing, and then answers what that selection returns.
func TestRankingMemoTop(t *testing.T) {
	ctx := context.Background()
	goal := false
	ranked := func(t *testing.T, strategy guidance.Strategy) *Engine {
		t.Helper()
		e, err := NewEngineContext(ctx, selectKAnswers(t, 80, 9), Config{
			Strategy:     strategy,
			Delta:        aggregation.DeltaConfig{Enabled: true},
			DeltaScoring: true,
			Goal:         func(*Engine) bool { return goal },
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.SelectNextKContext(ctx, 5); err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := ranked(t, &guidance.UncertaintyDriven{})
	want, err := e.SelectNextKContext(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	memo := e.TakeRankingMemo()
	got, ok := memo.Top(5)
	if !ok || len(got) != len(want) {
		t.Fatalf("Top(5) = %v, %v; want the selection %v", got, ok, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Top(5) = %v, want the selection %v", got, want)
		}
	}
	for _, k := range []int{0, -1, 80} {
		if _, ok := memo.Top(k); ok {
			t.Fatalf("Top(%d) answered", k)
		}
	}
	var none *RankingMemo
	if _, ok := none.Top(1); ok {
		t.Fatal("the nil memo answered")
	}

	h := hybridEngine(t, 1)
	if _, err := h.SelectNextKContext(ctx, 5); err != nil {
		t.Fatal(err)
	}
	refused := map[string]*RankingMemo{"hybrid": h.TakeRankingMemo()}
	e = ranked(t, &guidance.UncertaintyDriven{})
	e.SetCostBudget(&cost.Tracker{Theta: 10, Budget: 5})
	refused["cost budget spent"] = e.TakeRankingMemo()
	e = ranked(t, &guidance.UncertaintyDriven{})
	goal = true
	refused["goal reached"] = e.TakeRankingMemo()
	goal = false
	e = ranked(t, &guidance.WorkerDriven{})
	e.lastWorkerDriven = false
	refused["lastWorkerDriven unset"] = e.TakeRankingMemo()
	for what, memo := range refused {
		if memo == nil {
			t.Fatalf("%s: nothing memoized", what)
		}
		if _, ok := memo.Top(1); ok {
			t.Errorf("%s: the memo answered on its own", what)
		}
	}
}
