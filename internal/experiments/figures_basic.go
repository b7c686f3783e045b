package experiments

import (
	"fmt"
	"time"

	"crowdval/internal/aggregation"
	"crowdval/internal/guidance"
	"crowdval/internal/metrics"
	"crowdval/internal/model"
	"crowdval/internal/partition"
	"crowdval/internal/simulation"
	"crowdval/internal/spamdetect"
)

// Figure1WorkerTypes reproduces the worker-type characterization of Figure 1:
// for a simulated binary classification crowd containing all five worker
// types, it reports each worker's sensitivity (true-positive rate) and
// specificity (true-negative rate). Reliable workers cluster near (1,1),
// random spammers near (0.5,0.5), uniform spammers on an axis, and sloppy
// workers below the diagonal.
func Figure1WorkerTypes(opts Options) (*Table, error) {
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects: 200,
		NumWorkers: 25,
		NumLabels:  2,
		Mix: simulation.WorkerMix{
			Reliable: 0.2, Normal: 0.3, Sloppy: 0.2, UniformSpammer: 0.15, RandomSpammer: 0.15,
		},
		ReliableAccuracy: 0.95,
		NormalAccuracy:   0.75,
		SloppyAccuracy:   0.4,
		Seed:             opts.seed(),
	})
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "figure1",
		Title:   "Worker-type characterization: sensitivity vs specificity (binary task)",
		Columns: []string{"worker", "type", "sensitivity", "specificity"},
	}
	for w := 0; w < d.Answers.NumWorkers(); w++ {
		sens, spec := metrics.SensitivitySpecificity(d.Answers, w, d.Truth)
		table.AddRow(itoa(w), d.WorkerTypes[w].String(), f3(sens), f3(spec))
	}
	return table, nil
}

// Figure4ResponseTime reproduces Figure 4: the response time of one guidance
// iteration (scoring all candidate objects by information gain) for 20–50
// objects, serial vs parallel.
func Figure4ResponseTime(opts Options) (*Table, error) {
	table := &Table{
		ID:      "figure4",
		Title:   "Response time of one guidance iteration (seconds)",
		Columns: []string{"objects", "serial_s", "parallel_s", "speedup"},
	}
	runs := opts.runs(3)
	for _, numObjects := range []int{20, 30, 40, 50} {
		d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
			NumObjects:     numObjects,
			NumWorkers:     20,
			NumLabels:      2,
			NormalAccuracy: 0.65,
			Seed:           opts.seed(),
		})
		if err != nil {
			return nil, err
		}
		// Serial EM inside the scorers on both sides: the figure compares
		// serial vs parallel *candidate scoring*, so the per-candidate
		// aggregation must not shard on its own (nested sharding would both
		// skew the "serial" column and oversubscribe the "parallel" one).
		agg := &aggregation.IncrementalEM{Config: aggregation.EMConfig{Parallelism: 1}}
		res, err := agg.Aggregate(d.Answers, model.NewValidation(numObjects), nil)
		if err != nil {
			return nil, err
		}
		measure := func(parallel bool) (float64, error) {
			strategy := &guidance.UncertaintyDriven{} // score every candidate, as the paper does
			total := 0.0
			for r := 0; r < runs; r++ {
				ctx := &guidance.Context{
					Answers:    d.Answers,
					ProbSet:    res.ProbSet,
					Aggregator: agg,
					Detector:   &spamdetect.Detector{Parallelism: 1},
					Parallel:   parallel,
				}
				start := time.Now()
				if _, err := strategy.SelectK(ctx, 1); err != nil {
					return 0, err
				}
				total += time.Since(start).Seconds()
			}
			return total / float64(runs), nil
		}
		serial, err := measure(false)
		if err != nil {
			return nil, err
		}
		parallel, err := measure(true)
		if err != nil {
			return nil, err
		}
		speedup := 0.0
		if parallel > 0 {
			speedup = serial / parallel
		}
		table.AddRow(itoa(numObjects), fmt.Sprintf("%.4f", serial), fmt.Sprintf("%.4f", parallel), f2(speedup))
	}
	return table, nil
}

// Table5Partitioning reproduces Table 5: the start-up time of partitioning a
// large sparse answer matrix (16 000 questions, 1 000 workers) for different
// sparsity levels expressed as the maximal number of questions per worker.
func Table5Partitioning(opts Options) (*Table, error) {
	table := &Table{
		ID:      "table5",
		Title:   "Matrix partitioning start-up time (16000 questions, 1000 workers)",
		Columns: []string{"questions_per_worker", "answers", "blocks", "time_s"},
	}
	for _, perWorker := range []int{10, 20, 40, 60} {
		d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
			NumObjects:            16000,
			NumWorkers:            1000,
			NumLabels:             2,
			AnswersPerObject:      3,
			MaxQuestionsPerWorker: perWorker,
			NormalAccuracy:        0.7,
			Seed:                  opts.seed(),
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		p, err := partition.Partition(d.Answers, partition.Options{MaxObjectsPerBlock: 50})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		if !p.CoversAllObjects() {
			return nil, fmt.Errorf("experiments: partitioning does not cover all objects")
		}
		table.AddRow(itoa(perWorker), itoa(d.Answers.AnswerCount()), itoa(p.NumBlocks()), fmt.Sprintf("%.3f", elapsed))
	}
	return table, nil
}
