package model

import "fmt"

// Validation is the expert answer-validation function e: O → L ∪ {⊥}.
// It records, per object, the label the validating expert asserted to be
// correct, or NoLabel if the object has not been validated yet.
type Validation struct {
	labels []Label
}

// NewValidation creates an empty validation function for numObjects objects.
func NewValidation(numObjects int) *Validation {
	v := &Validation{labels: make([]Label, numObjects)}
	for i := range v.labels {
		v.labels[i] = NoLabel
	}
	return v
}

// NumObjects returns the number of objects covered by the function.
func (v *Validation) NumObjects() int { return len(v.labels) }

// Get returns e(object), or NoLabel for out-of-range objects.
func (v *Validation) Get(object int) Label {
	if object < 0 || object >= len(v.labels) {
		return NoLabel
	}
	return v.labels[object]
}

// Set records the expert input e(object) = label. Setting NoLabel retracts a
// validation.
func (v *Validation) Set(object int, label Label) {
	if object < 0 || object >= len(v.labels) {
		return
	}
	v.labels[object] = label
}

// Validated reports whether the expert has validated the object.
func (v *Validation) Validated(object int) bool {
	return v.Get(object) != NoLabel
}

// Count returns the number of validated objects.
func (v *Validation) Count() int {
	n := 0
	for _, l := range v.labels {
		if l != NoLabel {
			n++
		}
	}
	return n
}

// ValidatedObjects returns the indices of all validated objects in ascending
// order.
func (v *Validation) ValidatedObjects() []int { return v.objects(true) }

// UnvalidatedObjects returns the indices of all objects the expert has not
// validated yet, in ascending order.
func (v *Validation) UnvalidatedObjects() []int { return v.objects(false) }

// objects lists, in ascending order, the objects whose validated state is
// validated. The result is allocated once at its final size (nil when
// empty): a selection over tens of thousands of objects must not grow it by
// doubling.
func (v *Validation) objects(validated bool) []int {
	n := v.Count()
	if !validated {
		n = len(v.labels) - n
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for o, l := range v.labels {
		if (l != NoLabel) == validated {
			out = append(out, o)
		}
	}
	return out
}

// Ratio returns the fraction of validated objects, the quantity f_i = i/|O|
// used by the hybrid weighting scheme (Eq. 15).
func (v *Validation) Ratio() float64 {
	if len(v.labels) == 0 {
		return 0
	}
	return float64(v.Count()) / float64(len(v.labels))
}

// Grow extends the validation function to cover at least numObjects objects;
// new objects start unvalidated. Shrinking returns ErrDimensionMismatch.
func (v *Validation) Grow(numObjects int) error {
	if numObjects < len(v.labels) {
		return fmt.Errorf("%w: cannot shrink validation from %d to %d objects",
			ErrDimensionMismatch, len(v.labels), numObjects)
	}
	for len(v.labels) < numObjects {
		v.labels = append(v.labels, NoLabel)
	}
	return nil
}

// Clone returns a deep copy of the validation function.
func (v *Validation) Clone() *Validation {
	return &Validation{labels: append([]Label(nil), v.labels...)}
}

// CloneWithout returns a copy of the validation function from which the
// validation of the given object has been removed. It is used by the
// confirmation check for erroneous expert input (§5.5).
func (v *Validation) CloneWithout(object int) *Validation {
	c := v.Clone()
	c.Set(object, NoLabel)
	return c
}
