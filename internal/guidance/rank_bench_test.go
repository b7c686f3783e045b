package guidance

import (
	"fmt"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/model"
	"crowdval/internal/simulation"
)

// rankSink keeps the benchmarked rankings live.
var rankSink []ScoredObject

// BenchmarkRankTopK measures one fresh ranking of the delta-scored
// uncertainty strategy, serially, at the shape of perfbench's validate
// workload: a converged 10 000 × 200 binary crowd with five answers per
// object (75% normal workers of accuracy 0.7, 25% random spammers) and a
// candidate limit of 64, for k = 1, 5, 10 and 64. The index and its tables
// are built outside the timer. pruned_frac is the share of the 64
// candidates the ranking left at their bound.
func BenchmarkRankTopK(b *testing.B) {
	const n = 10000
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects: n, NumWorkers: 200, NumLabels: 2, AnswersPerObject: 5,
		NormalAccuracy: 0.7, Mix: simulation.WorkerMix{Normal: 0.75, RandomSpammer: 0.25}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	agg := &aggregation.IncrementalEM{Config: aggregation.EMConfig{Parallelism: 1}}
	res, err := agg.Aggregate(d.Answers, model.NewValidation(n), nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &Context{Answers: d.Answers, ProbSet: res.ProbSet, Aggregator: agg, DeltaScore: true}
	ctx.Index = aggregation.NewScoreIndex(d.Answers, res.ProbSet, aggregation.EMConfigOf(agg))
	ctx.Index.EnsureRankBounds()
	s := &UncertaintyDriven{CandidateLimit: 64}
	for _, k := range []int{1, 5, 10, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rankSink, err = s.SelectK(ctx, k); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_, work, err := s.Rank(ctx, nil, k)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(work.Pruned)/float64(work.Scored+work.Pruned), "pruned_frac")
		})
	}
}
