package model

import (
	"fmt"
	"math"
)

// AssignmentMatrix is the n×m matrix U of a probabilistic answer set:
// U(o, l) is the probability that l is the correct label for object o.
// Every row is a probability distribution over the labels.
type AssignmentMatrix struct {
	numObjects int
	numLabels  int
	data       []float64 // row-major by object
}

// NewAssignmentMatrix creates an n×m assignment matrix whose rows are all the
// uniform distribution.
func NewAssignmentMatrix(numObjects, numLabels int) *AssignmentMatrix {
	if numObjects <= 0 || numLabels <= 0 {
		panic(fmt.Sprintf("model: invalid assignment matrix dimensions %d×%d", numObjects, numLabels))
	}
	u := &AssignmentMatrix{
		numObjects: numObjects,
		numLabels:  numLabels,
		data:       make([]float64, numObjects*numLabels),
	}
	p := 1 / float64(numLabels)
	for i := range u.data {
		u.data[i] = p
	}
	return u
}

// AdoptAssignmentMatrix wraps data, numObjects·numLabels probabilities in
// row-major order, as an assignment matrix without copying it: the matrix
// owns data from then on.
func AdoptAssignmentMatrix(numObjects, numLabels int, data []float64) *AssignmentMatrix {
	return &AssignmentMatrix{numObjects: numObjects, numLabels: numLabels, data: data}
}

// NumObjects returns n.
func (u *AssignmentMatrix) NumObjects() int { return u.numObjects }

// NumLabels returns m.
func (u *AssignmentMatrix) NumLabels() int { return u.numLabels }

// Prob returns U(object, label).
func (u *AssignmentMatrix) Prob(object int, label Label) float64 {
	return u.data[object*u.numLabels+int(label)]
}

// SetProb assigns U(object, label) = p.
func (u *AssignmentMatrix) SetProb(object int, label Label, p float64) {
	u.data[object*u.numLabels+int(label)] = p
}

// Row returns a copy of the probability distribution of one object.
func (u *AssignmentMatrix) Row(object int) []float64 {
	row := make([]float64, u.numLabels)
	copy(row, u.data[object*u.numLabels:(object+1)*u.numLabels])
	return row
}

// SetRow overwrites the distribution of one object. The row is copied.
func (u *AssignmentMatrix) SetRow(object int, row []float64) {
	copy(u.data[object*u.numLabels:(object+1)*u.numLabels], row)
}

// RowSlice returns the distribution of one object as a mutable view into the
// matrix. It exists for the aggregation hot path, which writes each row in
// place instead of staging it in a scratch buffer; callers own the row until
// they hand the matrix on.
func (u *AssignmentMatrix) RowSlice(object int) []float64 {
	return u.data[object*u.numLabels : (object+1)*u.numLabels]
}

// NormalizeRow rescales the distribution of one object to sum to one,
// replacing a zero-sum row with the uniform distribution.
func (u *AssignmentMatrix) NormalizeRow(object int) {
	row := u.data[object*u.numLabels : (object+1)*u.numLabels]
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		p := 1 / float64(u.numLabels)
		for i := range row {
			row[i] = p
		}
		return
	}
	for i := range row {
		row[i] /= sum
	}
}

// SetCertain sets the distribution of one object to the point mass on label,
// as done for objects with an expert validation (Eq. 4).
func (u *AssignmentMatrix) SetCertain(object int, label Label) {
	row := u.data[object*u.numLabels : (object+1)*u.numLabels]
	for i := range row {
		row[i] = 0
	}
	row[label] = 1
}

// MostLikely returns the label with the highest probability for the object
// and that probability. Ties are broken toward the smaller label index.
func (u *AssignmentMatrix) MostLikely(object int) (Label, float64) {
	best := Label(0)
	bestP := u.Prob(object, 0)
	for l := 1; l < u.numLabels; l++ {
		if p := u.Prob(object, Label(l)); p > bestP {
			best, bestP = Label(l), p
		}
	}
	return best, bestP
}

// Priors returns the label priors implied by the assignment matrix,
// p(l) = Σ_o U(o, l) / n (Eq. 3).
func (u *AssignmentMatrix) Priors() []float64 {
	priors := make([]float64, u.numLabels)
	for o := 0; o < u.numObjects; o++ {
		for l := 0; l < u.numLabels; l++ {
			priors[l] += u.Prob(o, Label(l))
		}
	}
	for l := range priors {
		priors[l] /= float64(u.numObjects)
	}
	return priors
}

// IsDistribution reports whether every row is a valid probability
// distribution within tol.
func (u *AssignmentMatrix) IsDistribution(tol float64) bool {
	for o := 0; o < u.numObjects; o++ {
		sum := 0.0
		for l := 0; l < u.numLabels; l++ {
			v := u.Prob(o, Label(l))
			if v < -tol || v > 1+tol || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute entry-wise difference between two
// assignment matrices of identical dimensions. It is used as the EM
// convergence criterion.
func (u *AssignmentMatrix) MaxAbsDiff(v *AssignmentMatrix) float64 {
	if u.numObjects != v.numObjects || u.numLabels != v.numLabels {
		return math.Inf(1)
	}
	maxDiff := 0.0
	for i := range u.data {
		d := math.Abs(u.data[i] - v.data[i])
		if d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}

// Clone returns a deep copy of the assignment matrix.
func (u *AssignmentMatrix) Clone() *AssignmentMatrix {
	return &AssignmentMatrix{
		numObjects: u.numObjects,
		numLabels:  u.numLabels,
		data:       append([]float64(nil), u.data...),
	}
}
