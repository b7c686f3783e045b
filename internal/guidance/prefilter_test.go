package guidance

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/model"
)

// TestStreamingPrefilterMatchesListPath is the differential test of the
// streaming entropy prefilter: over random validation masks — none, some,
// most, all but a handful, and all objects validated — and limits below,
// at and above the number of open objects, the candidates streamed from the
// index equal a reference that lists UnvalidatedObjects and stable-sorts it
// by entropy (or keeps it in ascending order when it is no longer than the
// limit), whether the context carries the index or builds its own, and an
// empty candidate set is ErrNoCandidates. The crowd has many identical
// answer patterns, so entropy ties are exercised too.
func TestStreamingPrefilterMatchesListPath(t *testing.T) {
	const n = 60
	answers, _ := mixedCrowdAnswers(t, n, 4)
	base := buildContext(t, answers, nil)
	ix := aggregation.NewScoreIndex(answers, base.ProbSet, aggregation.EMConfig{})
	rng := rand.New(rand.NewSource(11))
	for trial, density := range []float64{0, 0.2, 0.5, 0.9, 0.95, 0.98, 1} {
		mask := model.NewValidation(n)
		for o := 0; o < n; o++ {
			if rng.Float64() < density {
				mask.Set(o, model.Label(rng.Intn(2)))
			}
		}
		probSet := *base.ProbSet
		probSet.Validation = mask
		open := mask.UnvalidatedObjects()
		for _, limit := range []int{1, 3, 5, 16, len(open), n, 100} {
			if limit <= 0 {
				continue
			}
			name := fmt.Sprintf("trial %d (%d open), limit %d", trial, len(open), limit)
			streamed, streamErr := (&Context{ProbSet: &probSet, Index: ix}).prefilter(limit)
			built, builtErr := (&Context{Answers: answers, ProbSet: &probSet}).prefilter(limit)
			if len(open) == 0 {
				if !errors.Is(streamErr, ErrNoCandidates) || !errors.Is(builtErr, ErrNoCandidates) {
					t.Fatalf("%s: errors %v / %v, want ErrNoCandidates", name, streamErr, builtErr)
				}
				continue
			}
			if streamErr != nil || builtErr != nil {
				t.Fatalf("%s: errors %v / %v", name, streamErr, builtErr)
			}
			want := slices.Clone(open)
			if len(want) > limit {
				slices.SortStableFunc(want, func(a, b int) int {
					return cmp.Compare(ix.ObjectEntropy(b), ix.ObjectEntropy(a))
				})
				want = want[:limit]
			}
			if !slices.Equal(streamed, want) || !slices.Equal(built, want) {
				t.Fatalf("%s: streamed %v, own index %v, want %v", name, streamed, built, want)
			}
		}
	}
}

// TestWarmSelectKAllocsIndependentOfCandidates: once an index's scratches
// are warm, a delta-scored ranking allocates the same small number of
// objects whatever the candidate limit — the scratch comes from the index's
// free list and the prefilter allocates O(limit), not O(n). A fresh scratch
// per ranking alone would cost more than the bound.
func TestWarmSelectKAllocsIndependentOfCandidates(t *testing.T) {
	answers, _ := mixedCrowdAnswers(t, 300, 6)
	ctx := deltaContext(t, answers, nil)
	ctx.Index = aggregation.NewScoreIndex(answers, ctx.ProbSet, aggregation.EMConfigOf(ctx.Aggregator))
	ctx.Index.EnsureHypoTables()
	const maxAllocs = 12
	var counts []float64
	for _, limit := range []int{8, 32, 128} {
		s := &UncertaintyDriven{CandidateLimit: limit}
		for i := 0; i < 3; i++ {
			if _, err := s.SelectK(ctx, 5); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.SelectK(ctx, 5); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Fatalf("limit %d: a warm ranking allocates %.0f objects, want at most %d", limit, allocs, maxAllocs)
		}
		counts = append(counts, allocs)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("warm ranking allocations depend on the candidate limit: %v for limits 8, 32, 128", counts)
		}
	}
}

// TestConcurrentRankingsShareIndexScratches: rankings running concurrently
// on one shared index (the read-locked serving path), each with parallel
// scoring goroutines leasing scratches from the index's free list, rank
// exactly like a serial ranking. Run under -race it also covers the free
// list's locking.
func TestConcurrentRankingsShareIndexScratches(t *testing.T) {
	answers, _ := mixedCrowdAnswers(t, 80, 8)
	base := deltaContext(t, answers, nil)
	ix := aggregation.NewScoreIndex(answers, base.ProbSet, aggregation.EMConfigOf(base.Aggregator))
	ix.EnsureHypoTables()
	s := &UncertaintyDriven{CandidateLimit: 24}
	ctxFor := func(parallel bool) *Context {
		return &Context{Answers: answers, ProbSet: base.ProbSet, Aggregator: base.Aggregator,
			Index: ix, DeltaScore: true, Parallel: parallel, MaxParallelism: 3}
	}
	want, err := s.SelectK(ctxFor(false), 10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := s.SelectK(ctxFor(true), 10)
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(got, want) {
					errs <- fmt.Errorf("concurrent ranking %v, serial %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
