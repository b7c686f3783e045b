package model

import (
	"fmt"
	"math"
)

// ConfusionMatrix captures the reliability of one worker as an m×m matrix F
// where F(l, l') is the probability that the worker assigns label l' to an
// object whose correct label is l. Each row is a probability distribution.
type ConfusionMatrix struct {
	numLabels int
	data      []float64 // row-major, rows = true label, cols = answered label
}

// NewConfusionMatrix creates an m×m confusion matrix initialized to zero.
func NewConfusionMatrix(numLabels int) *ConfusionMatrix {
	if numLabels <= 0 {
		panic(fmt.Sprintf("model: invalid confusion matrix size %d", numLabels))
	}
	return &ConfusionMatrix{
		numLabels: numLabels,
		data:      make([]float64, numLabels*numLabels),
	}
}

// AdoptConfusionMatrix wraps data, numLabels² entries in row-major order, as
// a confusion matrix without copying it: the matrix owns data from then on.
func AdoptConfusionMatrix(numLabels int, data []float64) *ConfusionMatrix {
	return &ConfusionMatrix{numLabels: numLabels, data: data}
}

// NewUniformConfusionMatrix creates a confusion matrix in which every row is
// the uniform distribution, i.e. the worker is modeled as a random guesser.
func NewUniformConfusionMatrix(numLabels int) *ConfusionMatrix {
	c := NewConfusionMatrix(numLabels)
	p := 1 / float64(numLabels)
	for i := range c.data {
		c.data[i] = p
	}
	return c
}

// NewDiagonalConfusionMatrix creates a confusion matrix whose diagonal entries
// equal accuracy and whose off-diagonal mass is spread uniformly, modeling a
// worker that answers correctly with the given probability.
func NewDiagonalConfusionMatrix(numLabels int, accuracy float64) *ConfusionMatrix {
	c := NewConfusionMatrix(numLabels)
	off := 0.0
	if numLabels > 1 {
		off = (1 - accuracy) / float64(numLabels-1)
	}
	for l := 0; l < numLabels; l++ {
		for l2 := 0; l2 < numLabels; l2++ {
			if l == l2 {
				c.Set(Label(l), Label(l2), accuracy)
			} else {
				c.Set(Label(l), Label(l2), off)
			}
		}
	}
	return c
}

// NumLabels returns the dimension m of the matrix.
func (c *ConfusionMatrix) NumLabels() int { return c.numLabels }

// At returns F(trueLabel, answeredLabel).
func (c *ConfusionMatrix) At(trueLabel, answeredLabel Label) float64 {
	return c.data[int(trueLabel)*c.numLabels+int(answeredLabel)]
}

// Set assigns F(trueLabel, answeredLabel) = p.
func (c *ConfusionMatrix) Set(trueLabel, answeredLabel Label, p float64) {
	c.data[int(trueLabel)*c.numLabels+int(answeredLabel)] = p
}

// Add increments F(trueLabel, answeredLabel) by delta. It is used when
// accumulating counts before normalization.
func (c *ConfusionMatrix) Add(trueLabel, answeredLabel Label, delta float64) {
	c.data[int(trueLabel)*c.numLabels+int(answeredLabel)] += delta
}

// Reset zeroes every entry so the matrix can be reused as a count
// accumulator without reallocating (the EM M-step re-estimates all worker
// matrices on every iteration).
func (c *ConfusionMatrix) Reset() {
	for i := range c.data {
		c.data[i] = 0
	}
}

// Row returns a copy of the row for the given true label.
func (c *ConfusionMatrix) Row(trueLabel Label) []float64 {
	row := make([]float64, c.numLabels)
	copy(row, c.data[int(trueLabel)*c.numLabels:int(trueLabel+1)*c.numLabels])
	return row
}

// NormalizeRows rescales every row to sum to one. Rows whose sum is zero (the
// worker never answered an object with that true label) are replaced by the
// uniform distribution so the matrix always remains a valid row-stochastic
// matrix.
func (c *ConfusionMatrix) NormalizeRows() {
	for l := 0; l < c.numLabels; l++ {
		row := c.data[l*c.numLabels : (l+1)*c.numLabels]
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum <= 0 {
			p := 1 / float64(c.numLabels)
			for i := range row {
				row[i] = p
			}
			continue
		}
		for i := range row {
			row[i] /= sum
		}
	}
}

// Smooth adds eps to every entry and renormalizes the rows. Smoothing keeps
// the EM estimates away from exact zeros, which would otherwise make the
// likelihood of a single conflicting answer collapse to zero.
func (c *ConfusionMatrix) Smooth(eps float64) {
	for i := range c.data {
		c.data[i] += eps
	}
	c.NormalizeRows()
}

// Accuracy returns the prior-weighted probability of a correct answer,
// i.e. Σ_l priors[l]·F(l, l). If priors is nil, labels are weighted uniformly.
func (c *ConfusionMatrix) Accuracy(priors []float64) float64 {
	acc := 0.0
	for l := 0; l < c.numLabels; l++ {
		p := 1 / float64(c.numLabels)
		if priors != nil {
			p = priors[l]
		}
		acc += p * c.At(Label(l), Label(l))
	}
	return acc
}

// ErrorRate returns the prior-weighted off-diagonal mass of the matrix,
// the e_w quantity used to detect sloppy workers (§5.3). If priors is nil,
// labels are weighted uniformly.
func (c *ConfusionMatrix) ErrorRate(priors []float64) float64 {
	errRate := 0.0
	for l := 0; l < c.numLabels; l++ {
		p := 1 / float64(c.numLabels)
		if priors != nil {
			p = priors[l]
		}
		rowErr := 0.0
		for l2 := 0; l2 < c.numLabels; l2++ {
			if l2 != l {
				rowErr += c.At(Label(l), Label(l2))
			}
		}
		errRate += p * rowErr
	}
	return errRate
}

// IsRowStochastic reports whether every row sums to one within tol.
func (c *ConfusionMatrix) IsRowStochastic(tol float64) bool {
	for l := 0; l < c.numLabels; l++ {
		sum := 0.0
		for l2 := 0; l2 < c.numLabels; l2++ {
			v := c.At(Label(l), Label(l2))
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

// Dense returns the matrix contents as a freshly allocated row-major slice of
// length m·m, suitable for handing to the linear-algebra substrate.
func (c *ConfusionMatrix) Dense() []float64 {
	return append([]float64(nil), c.data...)
}

// Clone returns a deep copy of the confusion matrix.
func (c *ConfusionMatrix) Clone() *ConfusionMatrix {
	return &ConfusionMatrix{
		numLabels: c.numLabels,
		data:      append([]float64(nil), c.data...),
	}
}

// String renders the matrix row by row with three decimals.
func (c *ConfusionMatrix) String() string {
	s := ""
	for l := 0; l < c.numLabels; l++ {
		for l2 := 0; l2 < c.numLabels; l2++ {
			s += fmt.Sprintf("%6.3f ", c.At(Label(l), Label(l2)))
		}
		s += "\n"
	}
	return s
}
