// Package guidance implements the expert-guidance strategies of §5 of the
// paper: random selection, the entropy baseline, uncertainty-driven selection
// by expected information gain, worker-driven selection by expected number of
// detected faulty workers, and the hybrid strategy that dynamically weighs
// the two. It also provides the confirmation check for erroneous expert
// validations (§5.5).
package guidance

import (
	stdctx "context"
	"fmt"
	"math/rand"
	"runtime"

	"crowdval/internal/aggregation"
	"crowdval/internal/cverr"
	"crowdval/internal/model"
	"crowdval/internal/par"
	"crowdval/internal/spamdetect"
)

// Context carries everything a selection strategy may need to score candidate
// objects for the next expert validation.
type Context struct {
	// Ctx optionally carries a cancellation context for the scoring work.
	// Exact scoring re-aggregates the answers once per (candidate, label)
	// pair, which on large answer sets dominates the latency of a validation
	// step; delta scoring (DeltaScore) runs one frontier-restricted pass per
	// hypothesis instead. A cancelled Ctx aborts the scoring with Ctx.Err().
	// Nil means "never cancel". Context is a per-call parameter object — it
	// is built fresh for every SelectK call — so carrying the context here
	// keeps the Strategy interface free of a second parameter.
	Ctx stdctx.Context
	// Answers is the (possibly quarantined) answer set.
	Answers *model.AnswerSet
	// ProbSet is the current probabilistic answer set. The objects its
	// validation leaves open are the candidates for the next validation.
	ProbSet *model.ProbabilisticAnswerSet
	// Aggregator is used by strategies that must evaluate hypothetical
	// expert inputs (information gain). When nil, an IncrementalEM with
	// default configuration is used.
	Aggregator *aggregation.IncrementalEM
	// Detector is used by the worker-driven strategy. When nil, a detector
	// with default thresholds is used.
	Detector *spamdetect.Detector
	// Parallel enables concurrent scoring of candidates.
	Parallel bool
	// MaxParallelism caps the number of scoring goroutines; values < 1 use
	// GOMAXPROCS.
	MaxParallelism int
	// Index optionally carries the per-aggregation scoring index (per-object
	// entropies, hypothetical-scoring tables). The validation engine builds
	// it once per aggregation and reuses it across SelectK calls; when nil,
	// strategies build one on the fly for this call, with the
	// hypothetical-scoring tables only when they score hypotheses.
	Index *aggregation.ScoreIndex
	// DeltaScore routes the uncertainty-driven strategy through the
	// delta-accelerated hypothetical scorer: each hypothesis is estimated
	// with one frontier-restricted EM pass (ScoreIndex/HypoScratch) instead
	// of a full warm EM re-aggregation, approximating the full-EM reference
	// within the documented information-gain tolerance (see the parity
	// tests). The worker-driven strategy has one scorer, exact in both
	// modes, and ignores it.
	DeltaScore bool
	// BlockedRows is ignored: delta scoring has a single hypothetical scorer
	// (aggregation.HypoScratch).
	//
	// Deprecated: kept so existing callers compile; it has no effect.
	BlockedRows bool
}

// candidates lists the objects the validation leaves open, in ascending
// order.
func (c *Context) candidates() []int {
	return c.ProbSet.Validation.UnvalidatedObjects()
}

// prefilter returns the candidates a scoring strategy ranks: the limit open
// objects with the highest entropy (see topUnvalidatedByEntropy), every open
// object for limit <= 0, or ErrNoCandidates when there is none.
func (c *Context) prefilter(limit int) ([]int, error) {
	var candidates []int
	if limit > 0 {
		candidates = topUnvalidatedByEntropy(c.entropyIndex(), c.ProbSet.Validation, limit)
	} else {
		candidates = c.candidates()
	}
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	return candidates, nil
}

// ctx returns the cancellation context, defaulting to context.Background.
func (c *Context) ctx() stdctx.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return stdctx.Background()
}

// aggregator and detector default to serial instances: strategies call them
// once per scored candidate, potentially from MaxParallelism scoring
// goroutines at once, so a GOMAXPROCS-sharded default would nest parallelism
// and oversubscribe the CPU. Explicit Aggregator/Detector fields are used
// exactly as given — a caller that scores serially may hand in sharded
// instances (note that core.Engine builds its scoring Context with a
// serialized detector copy when its Parallel flag is set; see core.Config).
func (c *Context) aggregator() *aggregation.IncrementalEM {
	if c.Aggregator != nil {
		return c.Aggregator
	}
	return &aggregation.IncrementalEM{Config: aggregation.EMConfig{Parallelism: 1}}
}

func (c *Context) detector() *spamdetect.Detector {
	if c.Detector != nil {
		return c.Detector
	}
	return &spamdetect.Detector{Parallelism: 1}
}

func (c *Context) parallelism() int {
	if c.MaxParallelism > 0 {
		return c.MaxParallelism
	}
	return runtime.GOMAXPROCS(0)
}

// entropyIndex returns the per-aggregation scoring index, building (and
// memoizing) one with entropies only when the caller did not supply it.
func (c *Context) entropyIndex() *aggregation.ScoreIndex {
	if c.Index == nil {
		c.Index = aggregation.NewScoreIndex(c.Answers, c.ProbSet, c.emConfig())
	}
	return c.Index
}

// index is entropyIndex with the hypothetical-scoring tables delta scoring
// reads. The call must happen before scoring fans out: the index is shared
// read-only by all scoring goroutines.
func (c *Context) index() *aggregation.ScoreIndex {
	c.entropyIndex()
	if c.DeltaScore {
		c.Index.EnsureHypoTables()
	}
	return c.Index
}

// emConfig extracts the EM parameters the hypothetical scorer mirrors from
// the context's aggregator, when it is one of the EM aggregators.
func (c *Context) emConfig() aggregation.EMConfig {
	return aggregation.EMConfigOf(c.Aggregator)
}

// ErrNoCandidates is returned when a strategy is asked to select an object
// but no candidate is available. It aliases the shared sentinel so
// errors.Is matches across layers.
var ErrNoCandidates = cverr.ErrNoCandidates

// Strategy selects the objects for which expert feedback should be sought
// next (step "select" of the validation process). Selection has one method:
// SelectK ranks up to k candidates (fewer when fewer exist) in one scoring
// pass, ordered by score descending with ties broken toward the smaller
// object index, and fails with ErrNoCandidates when there is none. A single
// selection is SelectK(ctx, 1).
type Strategy interface {
	// Name identifies the strategy in reports and experiment output.
	Name() string
	// SelectK returns up to k ranked candidates.
	SelectK(ctx *Context, k int) ([]ScoredObject, error)
}

// New builds the strategy a name selects — "hybrid" (also the empty name),
// "uncertainty", "worker", "baseline" or "random" — with candidateLimit
// bounding the information-gain scoring of the uncertainty-driven and
// worker-driven strategies (see UncertaintyDriven.CandidateLimit) and rnd
// driving the hybrid's roulette and random selection. An unknown name fails
// with ErrUnknownStrategy.
func New(name string, candidateLimit int, rnd *rand.Rand) (Strategy, error) {
	switch name {
	case "hybrid", "":
		return &Hybrid{
			Uncertainty: &UncertaintyDriven{CandidateLimit: candidateLimit},
			Worker:      &WorkerDriven{CandidateLimit: candidateLimit},
			Rand:        rnd,
		}, nil
	case "uncertainty":
		return &UncertaintyDriven{CandidateLimit: candidateLimit}, nil
	case "worker":
		return &WorkerDriven{CandidateLimit: candidateLimit}, nil
	case "baseline":
		return &Baseline{}, nil
	case "random":
		return &Random{Rand: rnd}, nil
	default:
		return nil, fmt.Errorf("%w: %q", cverr.ErrUnknownStrategy, name)
	}
}

// ScoredObject is one ranked candidate of a selection: the object and the
// strategy's score for it (information gain for the uncertainty-driven
// strategy, expected detected faulty workers for the worker-driven one,
// entropy for the baseline, 0 for strategies without a meaningful score).
type ScoredObject struct {
	Object int     `json:"object"`
	Score  float64 `json:"score"`
}

// Random selects a candidate uniformly at random. It models the unguided
// manual validation process.
type Random struct {
	Rand *rand.Rand
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// SelectK implements Strategy: k distinct uniform draws (a partial
// Fisher–Yates shuffle), one pseudo-random value per draw. Scores are zero —
// random selection has no ranking signal.
func (r *Random) SelectK(ctx *Context, k int) ([]ScoredObject, error) {
	candidates := ctx.candidates()
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	rng := r.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	if k < 1 {
		k = 1
	}
	pool := append([]int(nil), candidates...)
	out := make([]ScoredObject, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		out[i] = ScoredObject{Object: pool[i]}
	}
	return out, nil
}

// Baseline selects the candidate with the highest entropy, i.e. the most
// "problematic" object. This is the baseline guidance method of §6.6
// (Appendix C).
type Baseline struct{}

// Name implements Strategy.
func (b *Baseline) Name() string { return "baseline-entropy" }

// SelectK implements Strategy: the k candidates with the highest entropy,
// scored by that entropy. Entropies come from the per-aggregation index (or
// are computed once when the context carries none).
func (b *Baseline) SelectK(ctx *Context, k int) ([]ScoredObject, error) {
	if k < 1 {
		k = 1
	}
	return selectTop(ctx, b, k)
}

// Rank implements Ranker: every candidate scored by its entropy.
func (b *Baseline) Rank(ctx *Context, from *Ranking, k int) (*Ranking, RankWork, error) {
	return rankWith(ctx, b, from, k)
}

func (b *Baseline) candidates(ctx *Context) ([]int, error) {
	candidates := ctx.candidates()
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	return candidates, nil
}

func (b *Baseline) bounds(*Context, []int) ([]float64, error) { return nil, nil }

func (b *Baseline) scorer(ctx *Context) (scorerFactory, error) {
	ix := ctx.entropyIndex()
	return func() (scorerFunc, func()) {
		return func(o int) (float64, error) { return ix.ObjectEntropy(o), nil }, nil
	}, nil
}

// scorerFunc scores one candidate object. A scorer is used by exactly one
// goroutine, so implementations may keep per-goroutine scratch state.
type scorerFunc func(o int) (float64, error)

// scorerFactory builds one scoring goroutine's scorer. release, when
// non-nil, runs once that goroutine has scored its share; it hands the
// scorer's scratch back for reuse.
type scorerFactory func() (score scorerFunc, release func())

// scoreAll evaluates every candidate's score, optionally sharded across
// scoring goroutines through internal/par (the same dispatch the E/M-steps
// use, so cancellation and worker-cap semantics match the rest of the
// codebase). newScorer runs once per shard so each goroutine owns its scratch
// buffers, and the shard releases them when it is done. A cancelled ctx.Ctx
// aborts the scan between candidates and returns the context's error;
// results are identical for every parallelism degree because candidates are
// scored independently into disjoint slots.
func scoreAll(ctx *Context, candidates []int, newScorer scorerFactory) ([]float64, error) {
	scores := make([]float64, len(candidates))
	cancel := ctx.ctx()
	shards := 1
	if ctx.Parallel && len(candidates) > 1 {
		shards = par.Shards(ctx.parallelism(), len(candidates))
	}
	shardErr := make([]error, shards)
	err := par.ForNCtx(cancel, len(candidates), shards, func(shard, lo, hi int) {
		score, release := newScorer()
		if release != nil {
			defer release()
		}
		for idx := lo; idx < hi; idx++ {
			if err := cancel.Err(); err != nil {
				shardErr[shard] = err
				return
			}
			v, err := score(candidates[idx])
			if err != nil {
				shardErr[shard] = err
				return
			}
			scores[idx] = v
		}
	})
	if err != nil {
		return nil, err
	}
	for _, err := range shardErr {
		if err != nil {
			return nil, err
		}
	}
	return scores, nil
}

// topK is a bounded min-heap of the best candidates pushed so far: partial
// selection in O(c·log k) instead of a full O(c·log c) sort. The ranking it
// yields is fully ordered and deterministic — the (score, object) comparator
// is a total order — and does not depend on the order of the pushes.
type topK struct {
	// heap[0] is the worst kept element (min-heap under the ranking order);
	// cap(heap) is k.
	heap []ScoredObject
}

// newTopK keeps the k best of at most n pushes.
func newTopK(k, n int) topK {
	k = min(k, n)
	if k <= 0 {
		return topK{}
	}
	return topK{heap: make([]ScoredObject, 0, k)}
}

func (t *topK) push(cand ScoredObject) {
	heap := t.heap
	if len(heap) < cap(heap) {
		heap = append(heap, cand)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if !ranksBelow(heap[i], heap[parent]) {
				break
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
		t.heap = heap
		return
	}
	if len(heap) > 0 && ranksBelow(heap[0], cand) {
		heap[0] = cand
		siftDown(heap, 0)
	}
}

// ranking drains the heap into descending rank order in place — repeatedly
// swapping the worst remaining element to the back and restoring the shrunk
// prefix — and returns it (nil when k was 0). The topK is spent afterwards.
func (t *topK) ranking() []ScoredObject {
	heap := t.heap
	for end := len(heap) - 1; end > 0; end-- {
		heap[0], heap[end] = heap[end], heap[0]
		siftDown(heap[:end], 0)
	}
	return heap
}

// ranksBelow reports whether a ranks strictly below b in a ranking ordered
// by score descending with ties toward the smaller object index. It is a
// total order, which is what makes rankings deterministic.
func ranksBelow(a, b ScoredObject) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Object > b.Object
}

// siftDown restores the min-heap property (under ranksBelow) of s at index i.
func siftDown(s []ScoredObject, i int) {
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(s) && ranksBelow(s[left], s[smallest]) {
			smallest = left
		}
		if right < len(s) && ranksBelow(s[right], s[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

// topUnvalidatedByEntropy returns the limit (> 0) objects the validation
// leaves open with the highest entropy, ties toward the smaller object.
// Pre-filtering by entropy keeps the expensive information-gain computation
// tractable on large answer sets without changing which objects are
// interesting: objects with near-zero entropy cannot yield a large gain. It
// walks the index's objects in order and pushes the open ones straight into
// the bounded selection (see topK), so a ranking allocates O(limit), not
// O(n). When at most limit objects are open it returns them in ascending
// order.
func topUnvalidatedByEntropy(ix *aggregation.ScoreIndex, v *model.Validation, limit int) []int {
	n := ix.NumObjects()
	open := n - v.Count()
	if open <= limit {
		return v.UnvalidatedObjects()
	}
	top := newTopK(limit, open)
	for o := 0; o < n; o++ {
		if !v.Validated(o) {
			top.push(ScoredObject{Object: o, Score: ix.ObjectEntropy(o)})
		}
	}
	return objectsOf(top.ranking())
}

// objectsOf lists the objects of a ranking in rank order.
func objectsOf(ranked []ScoredObject) []int {
	out := make([]int, len(ranked))
	for i, s := range ranked {
		out[i] = s.Object
	}
	return out
}
