package core

import (
	"context"
	"testing"

	"crowdval/internal/model"
)

func scoringTestAnswers(t *testing.T) *model.AnswerSet {
	t.Helper()
	a := model.MustNewAnswerSet(6, 4, 2)
	for o := 0; o < 6; o++ {
		for w := 0; w < 4; w++ {
			if err := a.SetAnswer(o, w, model.Label((o+w)%2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

// TestParallelScoringGetsSerialVariants asserts that enabling parallel
// candidate scoring hands the guidance step serial copies of the aggregator
// and detector, while the engine's own conclude step keeps the sharded
// originals — the guard against nesting GOMAXPROCS-wide shards inside every
// scoring goroutine.
func TestParallelScoringGetsSerialVariants(t *testing.T) {
	answers := scoringTestAnswers(t)

	e, err := NewEngineContext(context.Background(), answers, Config{Parallel: true, MaxParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p := e.scoringAggregator.Config.Parallelism; p != 1 {
		t.Fatalf("scoring aggregator parallelism = %d, want 1", p)
	}
	if p := e.aggregator.Config.Parallelism; p != 4 {
		t.Fatalf("conclude-step aggregator parallelism = %d, want 4", p)
	}
	if e.scoringAggregator == e.aggregator {
		t.Fatal("scoring aggregator must be a distinct serial copy")
	}
	if e.scoringDetector.Parallelism != 1 {
		t.Fatalf("scoring detector parallelism = %d, want 1", e.scoringDetector.Parallelism)
	}
	if e.detector.Parallelism != 4 {
		t.Fatalf("conclude-step detector parallelism = %d, want 4", e.detector.Parallelism)
	}

}

// TestSerialScoringSharesAggregator asserts that without Parallel the
// guidance step uses the engine's own (possibly sharded) instances — serial
// scoring cannot nest, and sharded per-candidate aggregation is desirable.
func TestSerialScoringSharesAggregator(t *testing.T) {
	answers := scoringTestAnswers(t)
	e, err := NewEngineContext(context.Background(), answers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.scoringAggregator != e.aggregator {
		t.Fatal("serial scoring should share the engine aggregator")
	}
	if e.scoringDetector != e.detector {
		t.Fatal("serial scoring should share the engine detector")
	}
}
