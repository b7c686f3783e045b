package experiments

import (
	"fmt"
	"math/rand"

	"crowdval/internal/aggregation"
	"crowdval/internal/guidance"
	"crowdval/internal/metrics"
	"crowdval/internal/model"
	"crowdval/internal/simulation"
	"crowdval/internal/spamdetect"
)

// Figure5SeparateVsCombined reproduces Figure 5: integrating expert input as
// first-class ground truth ("Separate", the paper's approach) versus treating
// it as one more crowd answer ("Combined"). Both use the same sequence of
// validated objects, so the difference isolates the integration method.
func Figure5SeparateVsCombined(opts Options) (*Table, error) {
	d, err := simulation.GenerateProfile("val", opts.seed())
	if err != nil {
		return nil, err
	}
	// Collect a validation order with the baseline strategy so both variants
	// receive identical expert input.
	points, stats, err := RunValidationCurve(d, CurveConfig{
		Strategy:       StrategyBaseline,
		BudgetFraction: 0.3,
		Seed:           opts.seed(),
	})
	if err != nil {
		return nil, err
	}
	order := make([]int, 0, len(stats.History))
	for _, rec := range stats.History {
		order = append(order, rec.Object)
	}
	initialPrecision := stats.InitialPrecision

	table := &Table{
		ID:      "figure5",
		Title:   "Precision improvement (%) when expert input is Separate vs Combined (val profile)",
		Columns: []string{"effort_pct", "separate_impr_pct", "combined_impr_pct"},
	}
	n := d.Answers.NumObjects()
	for _, effortPct := range []int{5, 10, 15, 20, 25, 30} {
		count := effortPct * n / 100
		if count > len(order) {
			count = len(order)
		}
		// Separate: read off the guided run.
		separate := ImprovementAtEffort(points, float64(count)/float64(n))

		// Combined: the same expert answers enter the answer matrix as a new
		// worker; the aggregation has no notion of ground truth.
		validation := model.NewValidation(n)
		for _, o := range order[:count] {
			validation.Set(o, d.Truth[o])
		}
		combined, err := aggregation.CombineExpertAsWorker(d.Answers, validation)
		if err != nil {
			return nil, err
		}
		em := &aggregation.BatchEM{IgnoreValidation: true}
		res, err := em.Aggregate(combined, nil, nil)
		if err != nil {
			return nil, err
		}
		combinedPrecision := metrics.Precision(res.ProbSet.Instantiate(), d.Truth)
		combinedImpr := metrics.PrecisionImprovement(combinedPrecision, initialPrecision)

		table.AddRow(itoa(effortPct), pct(separate), pct(combinedImpr))
	}
	return table, nil
}

// Figure6ProbabilityHistogram reproduces Figure 6: the distribution of the
// probability the aggregation assigns to the correct label, for 0%, 15% and
// 30% expert effort. More expert input shifts mass toward the high bins.
func Figure6ProbabilityHistogram(opts Options) (*Table, error) {
	d, err := simulation.GenerateProfile("val", opts.seed())
	if err != nil {
		return nil, err
	}
	n := d.Answers.NumObjects()
	histograms := make(map[int][]float64)
	for _, effortPct := range []int{0, 15, 30} {
		validation := model.NewValidation(n)
		if effortPct > 0 {
			// Validate the first effortPct% objects in a reproducible random order.
			rng := rand.New(rand.NewSource(opts.seed()))
			perm := rng.Perm(n)
			for _, o := range perm[:effortPct*n/100] {
				validation.Set(o, d.Truth[o])
			}
		}
		agg := &aggregation.IncrementalEM{}
		res, err := agg.Aggregate(d.Answers, validation, nil)
		if err != nil {
			return nil, err
		}
		probs := aggregation.CorrectLabelProbabilities(res.ProbSet, d.Truth)
		histograms[effortPct] = metrics.Histogram(probs, 10)
	}
	table := &Table{
		ID:      "figure6",
		Title:   "Histogram of correct-label probabilities (val profile), % of objects per bin",
		Columns: []string{"probability_bin", "effort_0pct", "effort_15pct", "effort_30pct"},
	}
	for bin := 0; bin < 10; bin++ {
		table.AddRow(
			fmt.Sprintf("%.1f-%.1f", float64(bin)/10, float64(bin+1)/10),
			pct(histograms[0][bin]),
			pct(histograms[15][bin]),
			pct(histograms[30][bin]),
		)
	}
	return table, nil
}

// Figure7IEMSameSelection reproduces Figure 7: the percentage of cases in
// which the incremental i-EM (warm-started from the previous state) and a
// cold, randomly initialized EM lead the uncertainty-driven guidance to pick
// the same object. High percentages indicate initialization robustness.
func Figure7IEMSameSelection(opts Options) (*Table, error) {
	table := &Table{
		ID:      "figure7",
		Title:   "Frequency (%) of identical guidance selections: i-EM vs restart EM",
		Columns: []string{"dataset", "effort_20pct", "effort_50pct", "effort_80pct"},
	}
	runs := opts.runs(2)
	for _, name := range simulation.ProfileNames() {
		row := []string{name}
		for _, effortPct := range []int{20, 50, 80} {
			same := 0
			for r := 0; r < runs; r++ {
				seed := opts.seed() + int64(r*1000)
				d, err := simulation.GenerateProfile(name, seed)
				if err != nil {
					return nil, err
				}
				agree, err := sameSelection(d, effortPct, seed)
				if err != nil {
					return nil, err
				}
				if agree {
					same++
				}
			}
			row = append(row, pct(float64(same)/float64(runs)))
		}
		table.AddRow(row...)
	}
	return table, nil
}

// sameSelection checks whether warm-started i-EM and cold restart EM lead the
// information-gain selection to the same object at the given effort level.
func sameSelection(d *simulation.Dataset, effortPct int, seed int64) (bool, error) {
	n := d.Answers.NumObjects()
	validation := model.NewValidation(n)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	for _, o := range perm[:effortPct*n/100] {
		validation.Set(o, d.Truth[o])
	}
	warmAgg := &aggregation.IncrementalEM{}
	warmRes, err := warmAgg.Aggregate(d.Answers, validation, nil)
	if err != nil {
		return false, err
	}
	coldAgg := &aggregation.BatchEM{Init: aggregation.InitRandom, Rand: rand.New(rand.NewSource(seed + 7))}
	coldRes, err := coldAgg.Aggregate(d.Answers, validation, nil)
	if err != nil {
		return false, err
	}
	strategy := &guidance.UncertaintyDriven{CandidateLimit: defaultCandidateLimit}
	warmPick, err := strategy.SelectK(&guidance.Context{
		Answers: d.Answers, ProbSet: warmRes.ProbSet, Aggregator: warmAgg, Detector: &spamdetect.Detector{},
	}, 1)
	if err != nil {
		return false, err
	}
	coldPick, err := strategy.SelectK(&guidance.Context{
		Answers: d.Answers, ProbSet: coldRes.ProbSet, Aggregator: warmAgg, Detector: &spamdetect.Detector{},
	}, 1)
	if err != nil {
		return false, err
	}
	return warmPick[0].Object == coldPick[0].Object, nil
}

// Figure8IterationReduction reproduces Figure 8: the percentage of EM
// iterations saved by warm-starting the aggregation from the previous
// validation step (i-EM) instead of restarting from a random initialization,
// as the expert effort grows.
func Figure8IterationReduction(opts Options) (*Table, error) {
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects:     50,
		NumWorkers:     20,
		NumLabels:      2,
		NormalAccuracy: 0.65,
		Seed:           opts.seed(),
	})
	if err != nil {
		return nil, err
	}
	n := d.Answers.NumObjects()
	rng := rand.New(rand.NewSource(opts.seed()))
	order := rng.Perm(n)

	warm := &aggregation.IncrementalEM{}
	cold := &aggregation.BatchEM{Init: aggregation.InitRandom, Rand: rand.New(rand.NewSource(opts.seed() + 3))}

	validation := model.NewValidation(n)
	var prev *model.ProbabilisticAnswerSet
	warmTotal, coldTotal := 0, 0
	checkpoints := map[int][2]int{} // validations -> cumulative iterations

	res, err := warm.Aggregate(d.Answers, validation, nil)
	if err != nil {
		return nil, err
	}
	prev = res.ProbSet

	for i, o := range order {
		validation.Set(o, d.Truth[o])
		warmRes, err := warm.Aggregate(d.Answers, validation, prev)
		if err != nil {
			return nil, err
		}
		coldRes, err := cold.Aggregate(d.Answers, validation, nil)
		if err != nil {
			return nil, err
		}
		warmTotal += warmRes.Iterations
		coldTotal += coldRes.Iterations
		prev = warmRes.ProbSet
		done := i + 1
		if done*100%(n*20) == 0 { // every 20% of effort
			checkpoints[done*100/n] = [2]int{warmTotal, coldTotal}
		}
	}

	table := &Table{
		ID:      "figure8",
		Title:   "EM iteration reduction from incrementality (50 objects, 20 workers, r=0.65)",
		Columns: []string{"effort_pct", "iem_iterations", "restart_iterations", "reduction_pct"},
	}
	for _, effortPct := range []int{20, 40, 60, 80, 100} {
		c, ok := checkpoints[effortPct]
		if !ok {
			continue
		}
		reduction := 0.0
		if c[1] > 0 {
			reduction = float64(c[1]-c[0]) / float64(c[1])
		}
		table.AddRow(itoa(effortPct), itoa(c[0]), itoa(c[1]), pct(reduction))
	}
	return table, nil
}
