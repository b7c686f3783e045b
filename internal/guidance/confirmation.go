package guidance

import (
	"context"
	"fmt"

	"crowdval/internal/aggregation"
	"crowdval/internal/cverr"
	"crowdval/internal/model"
)

// ConfirmationCheck implements the lightweight detection of erroneous expert
// validations of §5.5. Every Period validations the check re-aggregates the
// answer set once per validated object with that object's validation removed;
// if the resulting deterministic assignment disagrees with the expert's
// label, the validation is flagged as potentially erroneous ("the crowd is
// wrong and the expert wrongly confirmed it" — case 2 in the paper).
type ConfirmationCheck struct {
	// Aggregator re-aggregates the answers without individual validations.
	// Nil uses a batch EM aggregator, which avoids biasing the check with
	// the state that was produced using the suspect validations.
	Aggregator *aggregation.BatchEM
	// Period is the number of validations between two checks; it is only
	// interpreted by the validation engine. Values < 1 mean "after every
	// validation".
	Period int
}

// EffectivePeriod returns the configured period, at least 1.
func (c *ConfirmationCheck) EffectivePeriod() int {
	if c == nil || c.Period < 1 {
		return 1
	}
	return c.Period
}

func (c *ConfirmationCheck) aggregator() *aggregation.BatchEM {
	if c != nil && c.Aggregator != nil {
		return c.Aggregator
	}
	return &aggregation.BatchEM{}
}

// SuspectValidation describes one expert validation flagged by the check.
type SuspectValidation struct {
	// Object is the validated object.
	Object int
	// ExpertLabel is the label the expert asserted.
	ExpertLabel model.Label
	// CrowdLabel is the label the aggregation produces when the expert's
	// validation of this object is withheld.
	CrowdLabel model.Label
}

// Check runs the confirmation check over all validated objects and returns
// the validations that disagree with the aggregation of the remaining
// evidence. The answer set and validation are not modified.
func (c *ConfirmationCheck) Check(answers *model.AnswerSet, validation *model.Validation) ([]SuspectValidation, error) {
	return c.CheckContext(context.Background(), answers, validation)
}

// CheckContext is Check with cancellation: the per-object re-aggregations
// observe ctx and the scan aborts with ctx.Err() once it is done.
func (c *ConfirmationCheck) CheckContext(ctx context.Context, answers *model.AnswerSet, validation *model.Validation) ([]SuspectValidation, error) {
	if answers == nil {
		return nil, fmt.Errorf("guidance: %w", cverr.ErrNilAnswerSet)
	}
	if validation == nil {
		return nil, fmt.Errorf("guidance: %w", cverr.ErrNilValidation)
	}
	agg := c.aggregator()
	var suspects []SuspectValidation
	for _, o := range validation.ValidatedObjects() {
		withheld := validation.CloneWithout(o)
		res, err := agg.AggregateContext(ctx, answers, withheld, nil)
		if err != nil {
			return nil, err
		}
		d := res.ProbSet.Instantiate()
		if d[o] != validation.Get(o) {
			suspects = append(suspects, SuspectValidation{
				Object:      o,
				ExpertLabel: validation.Get(o),
				CrowdLabel:  d[o],
			})
		}
	}
	return suspects, nil
}
