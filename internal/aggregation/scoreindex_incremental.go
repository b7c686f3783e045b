package aggregation

import "crowdval/internal/model"

// This file implements the maintained-view half of the ScoreIndex contract:
// instead of discarding the index on every aggregation and allocating a new
// one at the next selection, the engine refills the existing index in place
// for the successor aggregation result. The refill recomputes every table
// the index holds — no row or block is carried over — because a validation
// reaches nearly every row through the priors and the workers' confusions:
// a patch probe on the serving benchmark's traffic found 0 of 118 400
// confusion blocks and 0.37% of 5.92 M assignment rows unchanged across the
// patches of its `validate` workload. The result is bit-identical to a
// from-scratch NewScoreIndex + EnsureHypoTables (+ EnsureRankBounds) build —
// pinned by the differential suite — because the refill calls the same fill
// function per table, in the same order, as the build.

// ProbSet returns the probabilistic answer set this index currently
// describes. The engine compares it against its live state pointer to decide
// whether the index is current, can be refilled (Rebase), or must be built.
func (ix *ScoreIndex) ProbSet() *model.ProbabilisticAnswerSet { return ix.probSet }

// Rebase refills the index in place so it describes p instead of the
// aggregation result it was built for, and reports whether it succeeded.
// It fails (returning false, leaving the index unchanged and still valid for
// its original result) when the successor state is not shape-compatible: a
// different answer set (Grow, snapshot resume), changed dimensions, or a
// changed worker count. The caller must serialize Rebase against concurrent
// readers of the index.
//
// Every table the index has is recomputed, so a refill costs what a build
// of the same tables costs, minus the allocations: the index keeps its
// buffers and its free list of scoring scratches.
func (ix *ScoreIndex) Rebase(answers *model.AnswerSet, p *model.ProbabilisticAnswerSet) bool {
	if p == nil || answers == nil || answers != ix.answers {
		return false
	}
	if p.Assignment.NumObjects() != ix.n || p.Assignment.NumLabels() != ix.m {
		return false
	}
	if len(p.Confusions) != len(ix.probSet.Confusions) {
		return false
	}
	ix.probSet = p
	ix.fillEntropies()
	if ix.logConfT != nil {
		ix.fillHypoTables()
	}
	return true
}
