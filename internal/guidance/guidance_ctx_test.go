package guidance

import (
	"context"
	"errors"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/model"
)

// ctxTestContext builds a guidance context over a small aggregated crowd.
func ctxTestContext(t *testing.T, cancel context.Context, parallel bool) *Context {
	t.Helper()
	answers := model.MustNewAnswerSet(8, 4, 2)
	for o := 0; o < 8; o++ {
		for w := 0; w < 4; w++ {
			if err := answers.SetAnswer(o, w, model.Label((o+w)%2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := (&aggregation.IncrementalEM{}).Aggregate(answers, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Context{
		Ctx:            cancel,
		Answers:        answers,
		ProbSet:        res.ProbSet,
		Parallel:       parallel,
		MaxParallelism: 2,
	}
}

// TestScoringCancelledMidway cancels the context from inside the first score
// call and asserts the scan aborts with the context's error instead of
// scoring the remaining candidates — on both the serial and parallel paths.
func TestScoringCancelledMidway(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		name := "serial"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			cancellable, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := ctxTestContext(t, cancellable, parallel)
			calls := 0
			_, err := scoreAll(ctx, ctx.candidates(), func() (scorerFunc, func()) {
				return func(o int) (float64, error) {
					calls++
					cancel()
					return float64(o), nil
				}, nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !parallel && calls > 1 {
				t.Fatalf("serial scan scored %d candidates after cancellation", calls)
			}
		})
	}
}

// TestUncertaintyDrivenCancelled asserts a full strategy selection aborts
// with the context's error: the expensive per-candidate re-aggregations
// observe the context through AggregateContext, and the worker-driven
// baseline detection through DetectContext.
func TestUncertaintyDrivenCancelled(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := ctxTestContext(t, cancelled, false)
	if _, err := selectOne(&UncertaintyDriven{}, ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("uncertainty-driven: %v", err)
	}
	if _, err := selectOne(&WorkerDriven{}, ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("worker-driven: %v", err)
	}
}

// TestConfirmationCheckCancelled asserts the confirmation scan propagates
// cancellation.
func TestConfirmationCheckCancelled(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	gctx := ctxTestContext(t, nil, false)
	validation := model.NewValidation(8)
	validation.Set(0, 1)
	if _, err := (&ConfirmationCheck{}).CheckContext(cancelled, gctx.Answers, validation); !errors.Is(err, context.Canceled) {
		t.Fatalf("confirmation check: %v", err)
	}
}

// TestBatchEMCancelled asserts a cancelled context aborts the EM loop itself.
func TestBatchEMCancelled(t *testing.T) {
	gctx := ctxTestContext(t, nil, false)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&aggregation.BatchEM{}).AggregateContext(cancelled, gctx.Answers, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch EM: %v", err)
	}
	if _, err := (&aggregation.IncrementalEM{}).AggregateContext(cancelled, gctx.Answers, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("incremental EM: %v", err)
	}
}
