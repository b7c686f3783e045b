package aggregation

import (
	"math"

	"crowdval/internal/model"
)

// ObjectEntropy returns the Shannon entropy (natural log) of one object's
// label distribution, H(o) = −Σ_l U(o,l)·log U(o,l) (Eq. 6). Zero
// probabilities contribute nothing.
func ObjectEntropy(u *model.AssignmentMatrix, object int) float64 {
	h := 0.0
	for l := 0; l < u.NumLabels(); l++ {
		p := u.Prob(object, model.Label(l))
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	// Guard against -0.0 and tiny negative values from rounding.
	if h < 0 {
		h = 0
	}
	return h
}

// Uncertainty returns the total uncertainty of a probabilistic answer set,
// H(P) = Σ_o H(o) (Eq. 7). Objects validated by the expert contribute zero
// because their distribution is a point mass.
func Uncertainty(p *model.ProbabilisticAnswerSet) float64 {
	total := 0.0
	for o := 0; o < p.Assignment.NumObjects(); o++ {
		total += ObjectEntropy(p.Assignment, o)
	}
	return total
}

// CorrectLabelProbabilities returns, for every object with a known ground
// truth label, the probability the aggregation assigns to that correct label.
// It feeds the probability histogram of Figure 6.
func CorrectLabelProbabilities(p *model.ProbabilisticAnswerSet, truth model.DeterministicAssignment) []float64 {
	var out []float64
	for o := 0; o < p.Assignment.NumObjects(); o++ {
		if o >= len(truth) || truth[o] == model.NoLabel {
			continue
		}
		out = append(out, p.Assignment.Prob(o, truth[o]))
	}
	return out
}
