package guidance

import (
	"cmp"
	stdctx "context"
	"math"
	"slices"

	"crowdval/internal/par"
)

// Ranking is a ranking of one state's candidates in progress: the exactly
// scored ones ranked, then the pending ones in the order they would be
// scored, each carrying an upper bound on its score. The first Certified()
// entries are the exact top of all the candidates, because every other
// candidate's score is at most a bound strictly below theirs. A ranking
// continues (Ranker.Rank) by scoring pending candidates in bound order
// until the asked-for prefix is certified, so a later, larger k costs only
// the candidates it adds (enumeration with small delay: Carmeli and Lutz,
// https://arxiv.org/pdf/2603.18709).
type Ranking struct {
	// Entries holds the candidates: the first Exact with their exact scores
	// in rank order (score descending, object ascending), the rest with
	// their bounds in the same order by bound.
	Entries []ScoredObject
	Exact   int
}

// Ranker is a Strategy whose ranking of a state can be continued.
type Ranker interface {
	Strategy
	// Rank returns a ranking of ctx's state whose first k entries (all of
	// them when there are fewer candidates) are certified. A non-nil from,
	// an earlier result of this strategy on the same state, is continued
	// rather than re-ranked; it is not modified.
	Rank(ctx *Context, from *Ranking, k int) (*Ranking, RankWork, error)
}

// RankWork counts the candidates one Rank call scored exactly and, for a
// fresh ranking, those it left at their bound.
type RankWork struct {
	Scored, Pruned int
}

// Certified returns how many leading entries are the exact top of all the
// candidates: the exact entries whose scores lie strictly above the first
// pending bound. (On a tie a pending candidate could still rank above,
// through a smaller object index.)
func (r *Ranking) Certified() int {
	if r.Exact == len(r.Entries) {
		return r.Exact
	}
	beta := r.Entries[r.Exact].Score
	c := 0
	for c < r.Exact && r.Entries[c].Score > beta {
		c++
	}
	return c
}

// Top returns a copy of the first k entries (all of them when k exceeds the
// candidates) when they are certified.
func (r *Ranking) Top(k int) ([]ScoredObject, bool) {
	k = min(k, len(r.Entries))
	if k < 0 || r.Certified() < k {
		return nil, false
	}
	return slices.Clone(r.Entries[:k]), true
}

// Clone returns a copy of r whose entries fill their slice exactly.
func (r *Ranking) Clone() *Ranking {
	c := *r
	c.Entries = make([]ScoredObject, len(r.Entries))
	copy(c.Entries, r.Entries)
	return &c
}

// rankSource is what a scoring strategy hands the shared ranking loop: its
// candidates, their bounds and its scorer, each built only when needed.
type rankSource interface {
	// candidates lists a fresh ranking's candidates.
	candidates(ctx *Context) ([]int, error)
	// bounds returns an upper bound on each candidate's score, or nil when
	// the scorer has none, which bounds every candidate by +Inf so that all
	// of them are scored.
	bounds(ctx *Context, candidates []int) ([]float64, error)
	// scorer builds the exact scorer's factory.
	scorer(ctx *Context) (scorerFactory, error)
}

// rankWith is Ranker.Rank over a source: it continues a clone of from, or
// ranks afresh when from is nil.
func rankWith(ctx *Context, src rankSource, from *Ranking, k int) (*Ranking, RankWork, error) {
	var work RankWork
	sc := batchScorer{ctx: ctx, src: src}
	defer sc.close()
	if from != nil {
		r := from.Clone()
		scored, err := certify(ctx, &sc, r, k)
		work.Scored = scored
		if err != nil {
			return nil, work, err
		}
		return r, work, nil
	}
	candidates, err := src.candidates(ctx)
	if err != nil {
		return nil, work, err
	}
	// A ranking that must certify every candidate scores them all anyway.
	var bounds []float64
	if k < len(candidates) {
		if bounds, err = src.bounds(ctx, candidates); err != nil {
			return nil, work, err
		}
	}
	r := &Ranking{Entries: make([]ScoredObject, len(candidates))}
	for i, o := range candidates {
		b := math.Inf(1)
		if bounds != nil && !math.IsNaN(bounds[i]) {
			b = bounds[i]
		}
		r.Entries[i] = ScoredObject{Object: o, Score: b}
	}
	slices.SortFunc(r.Entries, compareRank)
	scored, err := certify(ctx, &sc, r, k)
	work.Scored = scored
	if err != nil {
		return nil, work, err
	}
	work.Pruned = len(r.Entries) - r.Exact
	return r, work, nil
}

// certify scores r's pending entries in bound order until its first k
// entries are certified or none is pending, and returns how many it scored.
// It stops as soon as the k-th best exact score lies strictly above the next
// pending bound; on equality it scores on. Serial scoring takes one
// candidate at a time; parallel scoring takes rounds of as many candidates
// as it has goroutines. Candidates bounded by +Inf are never skipped, so a
// run of them is scored in one round, sharded like a full scan. Rounds
// change how many candidates are scored, never the certified entries.
func certify(ctx *Context, sc *batchScorer, r *Ranking, k int) (int, error) {
	if k < 1 {
		return 0, nil
	}
	top := newTopK(k, len(r.Entries))
	for _, e := range r.Entries[:r.Exact] {
		top.push(e)
	}
	round := 1
	if ctx.Parallel {
		round = max(1, par.Shards(ctx.parallelism(), len(r.Entries)))
	}
	scored := 0
	for r.Exact < len(r.Entries) {
		next := r.Entries[r.Exact].Score
		if len(top.heap) == cap(top.heap) && top.heap[0].Score > next {
			break
		}
		hi := min(r.Exact+round, len(r.Entries))
		for hi < len(r.Entries) && math.IsInf(r.Entries[hi].Score, 1) {
			hi++
		}
		batch := r.Entries[r.Exact:hi]
		if err := sc.score(batch, round); err != nil {
			return scored, err
		}
		for _, e := range batch {
			top.push(e)
		}
		scored += len(batch)
		r.Exact = hi
	}
	slices.SortFunc(r.Entries[:r.Exact], compareRank)
	return scored, nil
}

// batchScorer scores batches of one ranking's entries in place with the
// source's scorer, built on first use. Serial batches share one scorer for
// the whole ranking; a sharded batch is scored by scoreAll.
type batchScorer struct {
	ctx     *Context
	src     rankSource
	factory scorerFactory
	serial  scorerFunc
	release func()
}

// score sets the exact score of every entry of batch, in up to shards
// goroutines. A cancelled context aborts it between candidates with the
// context's error.
func (b *batchScorer) score(batch []ScoredObject, shards int) error {
	if b.factory == nil {
		f, err := b.src.scorer(b.ctx)
		if err != nil {
			return err
		}
		b.factory = f
	}
	if shards = par.Shards(shards, len(batch)); shards > 1 {
		scores, err := scoreAll(b.ctx, objectsOf(batch), b.factory)
		if err != nil {
			return err
		}
		for i, v := range scores {
			batch[i].Score = v
		}
		return nil
	}
	if b.serial == nil {
		b.serial, b.release = b.factory()
	}
	return scoreRange(b.ctx.ctx(), batch, b.serial)
}

// scoreRange scores entries in place with one goroutine's scorer.
func scoreRange(cancel stdctx.Context, entries []ScoredObject, score scorerFunc) error {
	for i := range entries {
		if err := cancel.Err(); err != nil {
			return err
		}
		v, err := score(entries[i].Object)
		if err != nil {
			return err
		}
		entries[i].Score = v
	}
	return nil
}

// close releases the serial scorer's scratch.
func (b *batchScorer) close() {
	if b.release != nil {
		b.release()
	}
}

// compareRank orders entries by score descending, ties toward the smaller
// object index — the ranking order of ranksBelow as a comparison.
func compareRank(a, b ScoredObject) int {
	if a.Score != b.Score {
		return cmp.Compare(b.Score, a.Score)
	}
	return cmp.Compare(a.Object, b.Object)
}

// selectTop is SelectK over a source: a fresh ranking's first k entries.
func selectTop(ctx *Context, src rankSource, k int) ([]ScoredObject, error) {
	r, _, err := rankWith(ctx, src, nil, k)
	if err != nil {
		return nil, err
	}
	top := r.Entries[:min(max(k, 0), len(r.Entries))]
	if len(top) == 0 {
		return nil, ErrNoCandidates
	}
	return top, nil
}
