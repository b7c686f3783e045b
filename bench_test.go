package crowdval

import (
	"math/rand"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/experiments"
	"crowdval/internal/guidance"
	"crowdval/internal/model"
	"crowdval/internal/simulation"
	"crowdval/internal/spamdetect"
)

// benchmarkExperiment runs one evaluation experiment (a full table/figure of
// the paper) per benchmark iteration. Absolute times differ from the paper's
// testbed; EXPERIMENTS.md records the qualitative comparison.
func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table and figure of the evaluation section.

func BenchmarkFigure1WorkerTypes(b *testing.B)          { benchmarkExperiment(b, "figure1") }
func BenchmarkFigure4ResponseTime(b *testing.B)         { benchmarkExperiment(b, "figure4") }
func BenchmarkTable5Partitioning(b *testing.B)          { benchmarkExperiment(b, "table5") }
func BenchmarkFigure5SeparateVsCombined(b *testing.B)   { benchmarkExperiment(b, "figure5") }
func BenchmarkFigure6ProbabilityHistogram(b *testing.B) { benchmarkExperiment(b, "figure6") }
func BenchmarkFigure7IEMSameSelection(b *testing.B)     { benchmarkExperiment(b, "figure7") }
func BenchmarkFigure8IterationReduction(b *testing.B)   { benchmarkExperiment(b, "figure8") }
func BenchmarkFigure9SpammerDetection(b *testing.B)     { benchmarkExperiment(b, "figure9") }
func BenchmarkFigure10Guidance(b *testing.B)            { benchmarkExperiment(b, "figure10") }
func BenchmarkFigure11ExpertMistakes(b *testing.B)      { benchmarkExperiment(b, "figure11") }
func BenchmarkTable6MistakeDetection(b *testing.B)      { benchmarkExperiment(b, "table6") }
func BenchmarkFigure12CostTradeoff(b *testing.B)        { benchmarkExperiment(b, "figure12") }
func BenchmarkFigure13BudgetAllocation(b *testing.B)    { benchmarkExperiment(b, "figure13") }
func BenchmarkFigure14TimeConstraint(b *testing.B)      { benchmarkExperiment(b, "figure14") }
func BenchmarkFigure15UncertaintyPrecision(b *testing.B) {
	benchmarkExperiment(b, "figure15")
}
func BenchmarkFigure16QuestionDifficulty(b *testing.B) { benchmarkExperiment(b, "figure16") }
func BenchmarkFigure17NumLabels(b *testing.B)          { benchmarkExperiment(b, "figure17") }
func BenchmarkFigure18NumWorkers(b *testing.B)         { benchmarkExperiment(b, "figure18") }
func BenchmarkFigure19Reliability(b *testing.B)        { benchmarkExperiment(b, "figure19") }
func BenchmarkFigure20Spammers(b *testing.B)           { benchmarkExperiment(b, "figure20") }
func BenchmarkFigure21DifficultyCost(b *testing.B)     { benchmarkExperiment(b, "figure21") }
func BenchmarkFigure22SpammerCost(b *testing.B)        { benchmarkExperiment(b, "figure22") }
func BenchmarkFigure23ReliabilityCost(b *testing.B)    { benchmarkExperiment(b, "figure23") }

// Ablation benches for the design choices called out in DESIGN.md.

func BenchmarkAblationStrategies(b *testing.B) { benchmarkExperiment(b, "ablation-strategies") }
func BenchmarkAblationConfirmationPeriod(b *testing.B) {
	benchmarkExperiment(b, "ablation-confirmation")
}

// Micro-benchmarks of the core building blocks.

func benchmarkDataset(b *testing.B, objects, workers int) *simulation.Dataset {
	b.Helper()
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects:     objects,
		NumWorkers:     workers,
		NumLabels:      2,
		NormalAccuracy: 0.7,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkMajorityVoting(b *testing.B) {
	d := benchmarkDataset(b, 200, 40)
	mv := &aggregation.MajorityVoting{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mv.Aggregate(d.Answers, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchEM(b *testing.B) {
	d := benchmarkDataset(b, 200, 40)
	em := &aggregation.BatchEM{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Aggregate(d.Answers, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalEMWarmStart(b *testing.B) {
	d := benchmarkDataset(b, 200, 40)
	iem := &aggregation.IncrementalEM{}
	validation := model.NewValidation(d.Answers.NumObjects())
	res, err := iem.Aggregate(d.Answers, validation, nil)
	if err != nil {
		b.Fatal(err)
	}
	validation.Set(0, d.Truth[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := iem.Aggregate(d.Answers, validation, res.ProbSet); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpammerDetection(b *testing.B) {
	d := benchmarkDataset(b, 200, 40)
	validation := model.NewValidation(d.Answers.NumObjects())
	for o := 0; o < 100; o++ {
		validation.Set(o, d.Truth[o])
	}
	det := &spamdetect.Detector{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(d.Answers, validation, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHybridSelection(b *testing.B) {
	d := benchmarkDataset(b, 60, 20)
	iem := &aggregation.IncrementalEM{}
	res, err := iem.Aggregate(d.Answers, model.NewValidation(d.Answers.NumObjects()), nil)
	if err != nil {
		b.Fatal(err)
	}
	strategy := &guidance.Hybrid{
		Uncertainty: &guidance.UncertaintyDriven{CandidateLimit: 6},
		Worker:      &guidance.WorkerDriven{CandidateLimit: 6},
		Rand:        rand.New(rand.NewSource(1)),
	}
	ctx := &guidance.Context{
		Answers:    d.Answers,
		ProbSet:    res.ProbSet,
		Aggregator: iem,
		Detector:   &spamdetect.Detector{},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.SelectK(ctx, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkSparseCrowd generates a large sparse crowd: perObject answers per
// object, i.e. density perObject/workers (≈1% for 5/500).
func benchmarkSparseCrowd(b *testing.B, objects, workers, perObject int) *simulation.Dataset {
	b.Helper()
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects:       objects,
		NumWorkers:       workers,
		NumLabels:        2,
		NormalAccuracy:   0.7,
		AnswersPerObject: perObject,
		Seed:             1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchmarkAggregateSize compares, on one crowd shape, the pre-optimization
// pipeline (dense n×k matrix, single-goroutine EM — see
// reference_dense_test.go) against the sparse representation with serial and
// sharded E-/M-steps. BENCHMARKS.md records the measured numbers.
func benchmarkAggregateSize(b *testing.B, objects, workers, perObject int) {
	d := benchmarkSparseCrowd(b, objects, workers, perObject)
	validation := model.NewValidation(objects)
	for o := 0; o < objects/100; o++ {
		validation.Set(o*97%objects, d.Truth[o*97%objects])
	}

	b.Run("dense-serial", func(b *testing.B) {
		dense := newDenseAnswers(d.Answers)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			denseSerialIEM(dense, validation, nil, aggregation.EMConfig{})
		}
	})
	b.Run("sparse-serial", func(b *testing.B) {
		iem := &aggregation.IncrementalEM{Config: aggregation.EMConfig{Parallelism: 1}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := iem.Aggregate(d.Answers, validation, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparse-parallel", func(b *testing.B) {
		iem := &aggregation.IncrementalEM{} // Parallelism 0 = GOMAXPROCS shards
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := iem.Aggregate(d.Answers, validation, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAggregate is the headline hot-path benchmark: a cold-start i-EM
// aggregation on sparse crowds, before (dense serial) and after (sparse,
// sharded) the hot-path rebuild.
func BenchmarkAggregate(b *testing.B) {
	b.Run("2500x100", func(b *testing.B) { benchmarkAggregateSize(b, 2500, 100, 8) })
	b.Run("50000x500", func(b *testing.B) { benchmarkAggregateSize(b, 50000, 500, 5) })
}

// BenchmarkAggregateWarmStart measures the pay-as-you-go path: one new
// expert validation arrives and i-EM re-aggregates from the previous
// probabilistic answer set (§4.1). This is the call that runs after every
// expert answer, so its cost bounds the interactive latency.
func BenchmarkAggregateWarmStart(b *testing.B) {
	const objects, workers, perObject = 50000, 500, 5
	d := benchmarkSparseCrowd(b, objects, workers, perObject)
	validation := model.NewValidation(objects)
	iemWarm := &aggregation.IncrementalEM{}
	res, err := iemWarm.Aggregate(d.Answers, validation, nil)
	if err != nil {
		b.Fatal(err)
	}
	validation.Set(0, d.Truth[0])

	b.Run("dense-serial", func(b *testing.B) {
		dense := newDenseAnswers(d.Answers)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			denseSerialIEM(dense, validation, res.ProbSet, aggregation.EMConfig{})
		}
	})
	b.Run("sparse-serial", func(b *testing.B) {
		iem := &aggregation.IncrementalEM{Config: aggregation.EMConfig{Parallelism: 1}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := iem.Aggregate(d.Answers, validation, res.ProbSet); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparse-parallel", func(b *testing.B) {
		iem := &aggregation.IncrementalEM{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := iem.Aggregate(d.Answers, validation, res.ProbSet); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchmarkNextObject compares the two guidance scorers on one crowd shape
// over an identical candidate set (the 64 highest-entropy unvalidated
// objects, ~1% of objects expert-validated like BenchmarkAggregate):
//
//   - exact-full-em — the frozen reference: one full warm-started EM
//     re-aggregation per (candidate, label) hypothesis (Eq. 8 literally).
//   - delta — the delta-accelerated scorer: one frontier-restricted
//     hypothetical E/M/E pass per hypothesis against pooled scratch buffers
//     (aggregation.ScoreIndex/HypoScratch), index rebuilt every op.
//   - delta-maintained — the same scorer against one index built before
//     the timer starts.
//
// Selection runs serially (Parallelism 1) so the ratio isolates the
// algorithmic win, matching the BENCHMARKS.md single-core methodology.
func benchmarkNextObject(b *testing.B, objects, workers, perObject int) {
	d := benchmarkSparseCrowd(b, objects, workers, perObject)
	validation := model.NewValidation(objects)
	for o := 0; o < objects/100; o++ {
		validation.Set(o*97%objects, d.Truth[o*97%objects])
	}
	iem := &aggregation.IncrementalEM{Config: aggregation.EMConfig{Parallelism: 1}}
	res, err := iem.Aggregate(d.Answers, validation, nil)
	if err != nil {
		b.Fatal(err)
	}
	const candidateLimit = 64
	strategy := &guidance.UncertaintyDriven{CandidateLimit: candidateLimit}
	newCtx := func(delta bool) *guidance.Context {
		return &guidance.Context{
			Answers:    d.Answers,
			ProbSet:    res.ProbSet,
			Aggregator: iem,
			DeltaScore: delta,
		}
	}

	b.Run("exact-full-em", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh context per iteration rebuilds the per-aggregation
			// index, like a serving step after a state change would.
			if _, err := strategy.SelectK(newCtx(false), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := strategy.SelectK(newCtx(true), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The variants above rebuild the index every iteration (cold serving
	// step). The variant below reuses one context across
	// iterations, so the index is built once and reused — the
	// maintained-view steady state of a serving session between state
	// changes.
	b.Run("delta-maintained", func(b *testing.B) {
		ctx := newCtx(true)
		if _, err := strategy.SelectK(ctx, 1); err != nil { // warm the index
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := strategy.SelectK(ctx, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNextObject is the headline guidance-scoring benchmark: one
// uncertainty-driven NextObject selection, exact full-EM reference vs the
// delta-accelerated scorer, on the BENCHMARKS.md crowd shapes. The delta/
// exact ns/op ratio is guarded by scripts/benchguard (-pairs next).
func BenchmarkNextObject(b *testing.B) {
	b.Run("2500x100", func(b *testing.B) { benchmarkNextObject(b, 2500, 100, 8) })
	b.Run("50000x500", func(b *testing.B) { benchmarkNextObject(b, 50000, 500, 5) })
}

func BenchmarkGuidedSessionStep(b *testing.B) {
	d := benchmarkDataset(b, 60, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		session, err := NewSession(d.Answers, WithStrategy(StrategyHybrid), WithCandidateLimit(6), WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		object, err := session.NextObject()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := session.SubmitValidation(object, d.Truth[object]); err != nil {
			b.Fatal(err)
		}
	}
}
