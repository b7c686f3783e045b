package aggregation

import "crowdval/internal/model"

// This file implements the maintained-view half of the ScoreIndex contract:
// instead of discarding the index on every aggregation and rebuilding it from
// scratch at the next selection (O(n·m) entropy scan plus O(k·m² +
// #answers·m) table fills), the engine patches the existing index onto the
// successor aggregation result, touching only entries whose underlying rows
// actually changed. A delta aggregation's settle sweep rewrites every assignment row
// object (usually to bit-identical values outside the dirty frontier), so the
// patch diffs rows rather than trusting the frontier: a row that carries the
// same bits keeps its cached entropy, a row that moved is recomputed. The
// result is bit-identical to a from-scratch NewScoreIndex + EnsureHypoTables
// build — pinned by the differential suite — because every retained value is
// the same float and every recomputed value goes through the same functions
// in the same order, including the totalH re-sum, which deliberately re-adds
// all n entropies in index order (matching NewScoreIndex's accumulation
// exactly) instead of compensating the old total with deltas, so maintained
// totals never drift from rebuilt ones.

// ProbSet returns the probabilistic answer set this index currently
// describes. The engine compares it against its live state pointer to decide
// whether the index is current, patchable (Rebase), or must be rebuilt.
func (ix *ScoreIndex) ProbSet() *model.ProbabilisticAnswerSet { return ix.probSet }

// Rebase patches the index in place so it describes p instead of the
// aggregation result it was built for, and reports whether it succeeded.
// It fails (returning false, leaving the index unchanged and still valid for
// its original result) when the successor state is not shape-compatible: a
// different answer set (Grow, snapshot resume), changed dimensions, or a
// changed worker count. The caller must serialize Rebase against concurrent
// readers of the index.
//
// Cost is proportional to what changed: unchanged assignment rows are
// detected by a bitwise compare and keep their cached entropies; unchanged
// confusion matrices (pointer-equal or value-equal) keep their log blocks.
// Only moved rows are re-entropied and only moved blocks re-logged; totalH is
// re-summed exactly as NewScoreIndex sums it whenever any entropy moved, the
// per-object answer log-likelihoods are refilled whenever any block moved,
// a binary index's worker soft counts whenever any row or block moved, and
// the per-object row factors and Taylor coefficients (which also depend on
// the priors) on every patch.
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

	old := ix.probSet
	rowsMoved := false
	if p.Assignment != old.Assignment {
		changed := false
		for o := 0; o < ix.n; o++ {
			if rowsEqual(old.Assignment.RowSlice(o), p.Assignment.RowSlice(o)) {
				continue
			}
			ix.entropies[o] = ObjectEntropy(p.Assignment, o)
			changed = true
		}
		if changed {
			// Re-sum in index order, exactly like NewScoreIndex, so the
			// maintained total carries the same bits as a rebuilt one.
			total := 0.0
			for _, h := range ix.entropies {
				total += h
			}
			ix.totalH = total
		}
		rowsMoved = changed
	}

	if ix.logConfT != nil {
		// Priors are a function of the whole assignment; recomputing them is
		// O(m) and always exact, so no diff is attempted.
		fillLogPriors(ix.logPriors, p.Assignment)
		mm := ix.m * ix.m
		moved := false
		for w := range p.Confusions {
			if confusionsEqual(old.Confusions[w], p.Confusions[w], ix.m) {
				continue
			}
			fillLogConfBlockT(ix.logConfT[w*mm:(w+1)*mm], p.Confusions[w], ix.m)
			moved = true
		}
		// Every answer change reaches the re-estimated confusion of its
		// worker, so a moved block is also what flags answer changes. The
		// refill is one pass over the answers, like the build.
		if moved {
			ix.fillLogRows()
		}
		// A worker's soft counts move with the rows it answered and with
		// its answers, which a moved block flags.
		if ix.softCounts != nil && (rowsMoved || moved) {
			ix.fillSoftCounts(p.Assignment)
		}
		// The row factors depend on both the priors and the rows, and the
		// Taylor table on those and the entropies.
		ix.fillRowExp()
	}

	ix.probSet = p
	return true
}

// rowsEqual reports whether two probability rows carry identical bits. Plain
// == (not epsilon) on purpose: a row that moved by any amount must be
// recomputed for the maintained index to stay bit-identical to a rebuild.
func rowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// confusionsEqual reports whether two confusion matrices carry identical
// bits (pointer equality short-circuits; m is small, so the cell compare is
// cheap relative to re-logging an m² block).
func confusionsEqual(a, b *model.ConfusionMatrix, m int) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	for l := 0; l < m; l++ {
		for a2 := 0; a2 < m; a2++ {
			if a.At(model.Label(l), model.Label(a2)) != b.At(model.Label(l), model.Label(a2)) {
				return false
			}
		}
	}
	return true
}
