package metrics

import (
	"fmt"
	"math"

	"crowdval/internal/model"
)

// Precision returns P_i, the fraction of objects whose assigned label matches
// the ground truth g (Eq. in §6.1). Objects whose ground-truth label is
// NoLabel are skipped; if every object is skipped the precision is 0.
func Precision(d model.DeterministicAssignment, g model.DeterministicAssignment) float64 {
	if len(d) == 0 || len(d) != len(g) {
		return 0
	}
	correct, total := 0, 0
	for o := range d {
		if g[o] == model.NoLabel {
			continue
		}
		total++
		if d[o] == g[o] {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// PrecisionImprovement returns R_i = (P_i − P_0)/(1 − P_0), the normalized
// precision improvement relative to the initial precision P0. When P0 is
// already 1 the improvement is defined as 1 if Pi is also 1, otherwise 0.
func PrecisionImprovement(pi, p0 float64) float64 {
	if p0 >= 1 {
		if pi >= 1 {
			return 1
		}
		return 0
	}
	r := (pi - p0) / (1 - p0)
	if r < 0 {
		return 0
	}
	return r
}

// PrecisionRecall computes precision and recall of a detection task given the
// set of predicted positives and the set of actual positives. With no
// predictions the precision is 1 by convention (nothing wrongly flagged);
// with no actual positives the recall is 1.
func PrecisionRecall(predicted, actual []int) (precision, recall float64) {
	actualSet := make(map[int]bool, len(actual))
	for _, a := range actual {
		actualSet[a] = true
	}
	tp := 0
	for _, p := range predicted {
		if actualSet[p] {
			tp++
		}
	}
	if len(predicted) == 0 {
		precision = 1
	} else {
		precision = float64(tp) / float64(len(predicted))
	}
	if len(actual) == 0 {
		recall = 1
	} else {
		recall = float64(tp) / float64(len(actual))
	}
	return precision, recall
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// PearsonCorrelation returns the Pearson correlation coefficient of two
// equally long series. It returns an error if the lengths differ, fewer than
// two points are given, or one of the series has zero variance.
func PearsonCorrelation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("metrics: series lengths differ (%d vs %d)", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("metrics: need at least two points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("metrics: zero variance series")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Histogram bins values from [0, 1] into numBins equal-width bins and returns
// the fraction of values per bin. Values outside [0, 1] are clamped.
func Histogram(values []float64, numBins int) []float64 {
	if numBins <= 0 {
		return nil
	}
	counts := make([]float64, numBins)
	if len(values) == 0 {
		return counts
	}
	for _, v := range values {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		bin := int(v * float64(numBins))
		if bin >= numBins {
			bin = numBins - 1
		}
		counts[bin]++
	}
	for i := range counts {
		counts[i] /= float64(len(values))
	}
	return counts
}

// SensitivitySpecificity computes, for binary tasks (labels 0 = negative,
// 1 = positive), the sensitivity (true-positive rate) and specificity
// (true-negative rate) of a worker's answers against the ground truth. It is
// used to reproduce the worker-type characterization of Figure 1.
func SensitivitySpecificity(answers *model.AnswerSet, worker int, truth model.DeterministicAssignment) (sensitivity, specificity float64) {
	var tp, fn, tn, fp int
	for _, oa := range answers.WorkerView(worker) {
		o, a := oa.Object, oa.Label
		if o >= len(truth) || truth[o] == model.NoLabel {
			continue
		}
		switch truth[o] {
		case 1:
			if a == 1 {
				tp++
			} else {
				fn++
			}
		case 0:
			if a == 0 {
				tn++
			} else {
				fp++
			}
		}
	}
	if tp+fn > 0 {
		sensitivity = float64(tp) / float64(tp+fn)
	}
	if tn+fp > 0 {
		specificity = float64(tn) / float64(tn+fp)
	}
	return sensitivity, specificity
}
