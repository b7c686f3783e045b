package guidance

import (
	"slices"
	"testing"
)

// fakeSource is a rankSource with fixed bounds and scores that records
// which candidates it scored.
type fakeSource struct {
	objects []int
	bound   map[int]float64
	score   map[int]float64
	scored  []int
}

func (f *fakeSource) candidates(*Context) ([]int, error) { return f.objects, nil }

func (f *fakeSource) bounds(_ *Context, candidates []int) ([]float64, error) {
	if f.bound == nil {
		return nil, nil
	}
	out := make([]float64, len(candidates))
	for i, o := range candidates {
		out[i] = f.bound[o]
	}
	return out, nil
}

func (f *fakeSource) scorer(*Context) (scorerFactory, error) {
	return func() (scorerFunc, func()) {
		return func(o int) (float64, error) {
			f.scored = append(f.scored, o)
			return f.score[o], nil
		}, nil
	}, nil
}

// TestCertifyScoresBoundTies: the ranking scores candidates in bound order
// and stops only when the next bound lies strictly below the k-th exact
// score. A pending candidate whose bound equals that score is scored,
// because with an equal score and a smaller object it ranks above.
func TestCertifyScoresBoundTies(t *testing.T) {
	src := &fakeSource{
		objects: []int{1, 2, 3, 4},
		bound:   map[int]float64{1: 0.5, 2: 0.9, 3: 0.4, 4: 0.3},
		score:   map[int]float64{1: 0.5, 2: 0.5, 3: 0.1, 4: 0.3},
	}
	r, work, err := rankWith(&Context{}, src, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := r.Top(1)
	if !ok || len(top) != 1 || top[0] != (ScoredObject{Object: 1, Score: 0.5}) {
		t.Fatalf("top = %v (%v), want object 1 at 0.5", top, ok)
	}
	if !slices.Equal(src.scored, []int{2, 1}) || work != (RankWork{Scored: 2, Pruned: 2}) {
		t.Fatalf("scored %v with work %+v, want [2 1] and 2 scored, 2 pruned", src.scored, work)
	}

	// Continuing for k = 3 scores only what the larger prefix needs, in
	// bound order, and counts nothing as pruned.
	src.scored = nil
	r, work, err = rankWith(&Context{}, src, r, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []ScoredObject{{Object: 1, Score: 0.5}, {Object: 2, Score: 0.5}, {Object: 4, Score: 0.3}}
	if top, ok := r.Top(3); !ok || !slices.Equal(top, want) {
		t.Fatalf("top 3 = %v (%v), want %v", top, ok, want)
	}
	if !slices.Equal(src.scored, []int{3, 4}) || work != (RankWork{Scored: 2}) {
		t.Fatalf("continuation scored %v with work %+v, want [3 4] and 2 scored", src.scored, work)
	}
}

// TestRankingCertified: only exact entries strictly above the first
// pending bound are certified, and a ranking serves a k beyond its
// candidates only once every candidate is exact.
func TestRankingCertified(t *testing.T) {
	r := &Ranking{
		Entries: []ScoredObject{{Object: 5, Score: 0.9}, {Object: 1, Score: 0.7}, {Object: 2, Score: 0.7}, {Object: 3, Score: 0.4}},
		Exact:   2,
	}
	if c := r.Certified(); c != 1 {
		t.Fatalf("certified %d, want 1 (a pending bound ties the second)", c)
	}
	if top, ok := r.Top(2); ok {
		t.Fatalf("an uncertified prefix served k = 2: %v", top)
	}
	if top, ok := r.Top(9); ok {
		t.Fatalf("an incomplete ranking served k = 9: %v", top)
	}
	full := &Ranking{Entries: []ScoredObject{{Object: 1, Score: 0.5}, {Object: 2, Score: 0.1}}, Exact: 2}
	if top, ok := full.Top(9); !ok || len(top) != 2 {
		t.Fatalf("complete ranking served %v (%v) for k = 9", top, ok)
	}
}
