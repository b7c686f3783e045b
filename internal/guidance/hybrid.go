package guidance

import (
	"math"
	"math/rand"
)

// Hybrid combines the uncertainty-driven and the worker-driven strategies
// with the dynamic weighting scheme of §5.4 (Eq. 15). In every iteration the
// engine updates the weight z_i from the observed error rate, the ratio of
// detected faulty workers and the ratio of answered validations; the strategy
// then performs a roulette-wheel choice: with probability z_i the
// worker-driven strategy selects the object, otherwise the uncertainty-driven
// one does.
type Hybrid struct {
	// Uncertainty and Worker are the two underlying strategies. Nil fields
	// are replaced by strategies with default configuration.
	Uncertainty *UncertaintyDriven
	Worker      *WorkerDriven
	// Rand drives the roulette-wheel choice; nil falls back to a fixed-seed
	// generator for reproducibility.
	Rand *rand.Rand

	// weight is the current z_i score in [0, 1).
	weight float64
}

// Name implements Strategy.
func (h *Hybrid) Name() string { return "hybrid" }

// Weight returns the current z_i value.
func (h *Hybrid) Weight() float64 { return h.weight }

// SetWeight restores a previously observed z_i value (session resume).
func (h *Hybrid) SetWeight(w float64) { h.weight = clamp01(w) }

// UpdateWeight recomputes z_{i+1} = 1 − exp(−(ε_i(1−f_i) + r_i·f_i)) from the
// error rate ε_i of the latest validation, the ratio of detected faulty
// workers r_i and the ratio of answered validations f_i (Eq. 15).
func (h *Hybrid) UpdateWeight(errorRate, faultyRatio, validationRatio float64) float64 {
	errorRate = clamp01(errorRate)
	faultyRatio = clamp01(faultyRatio)
	validationRatio = clamp01(validationRatio)
	h.weight = 1 - math.Exp(-(errorRate*(1-validationRatio) + faultyRatio*validationRatio))
	return h.weight
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ChooseBranch performs the roulette-wheel draw of one selection — with
// probability z_i the worker-driven strategy, otherwise the uncertainty-driven
// one — consumes exactly one pseudo-random value and returns the branch
// strategy; the caller tells the branch from its type (Algorithm 1 only
// quarantines detected spammers after a worker-driven choice, line 12). It
// exists as a separate step so callers that serve selections concurrently
// (the validation engine under a serving tier's read lock) can serialize
// only this stateful draw and run the expensive, read-only candidate scoring
// outside the lock.
func (h *Hybrid) ChooseBranch() Strategy {
	rng := h.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
		h.Rand = rng
	}
	if rng.Float64() < h.weight {
		if h.Worker != nil {
			return h.Worker
		}
		return &WorkerDriven{}
	}
	if h.Uncertainty != nil {
		return h.Uncertainty
	}
	return &UncertaintyDriven{}
}

// SelectK implements Strategy: one roulette-wheel draw — the worker-driven
// strategy with probability z_i, otherwise the uncertainty-driven one —
// chooses the branch, which then ranks the top-k candidates. Every call
// consumes exactly one pseudo-random value whatever k is, so selections of
// any size keep the session's stream (and therefore snapshots) aligned.
func (h *Hybrid) SelectK(ctx *Context, k int) ([]ScoredObject, error) {
	return h.ChooseBranch().SelectK(ctx, k)
}
