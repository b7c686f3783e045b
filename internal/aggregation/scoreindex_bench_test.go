package aggregation

import (
	"fmt"
	"slices"
	"testing"

	"crowdval/internal/model"
	"crowdval/internal/simulation"
)

// hypoSink keeps the benchmarked scores live.
var hypoSink float64

// BenchmarkHypoScorer measures the hypothetical scorer alone, the layer
// behind the uncertainty strategy's ranking: one ConditionalUncertainty per
// candidate, serially, for the 64 highest-entropy objects of a converged
// 10 000 × 200 crowd with five answers per object, 75% normal workers of
// accuracy 0.7 and 25% random spammers — the session shape and candidate
// limit of perfbench's validate workload. Index construction is outside the
// timer.
func BenchmarkHypoScorer(b *testing.B) {
	const n, candidates = 10000, 64
	for _, m := range []int{2, 3} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
				NumObjects: n, NumWorkers: 200, NumLabels: m, AnswersPerObject: 5,
				NormalAccuracy: 0.7, Mix: simulation.WorkerMix{Normal: 0.75, RandomSpammer: 0.25}, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			cfg := EMConfig{Parallelism: 1}
			res, err := (&IncrementalEM{Config: cfg}).Aggregate(d.Answers, model.NewValidation(n), nil)
			if err != nil {
				b.Fatal(err)
			}
			ix := NewScoreIndex(d.Answers, res.ProbSet, cfg)
			objects := make([]int, n)
			for o := range objects {
				objects[o] = o
			}
			slices.SortStableFunc(objects, func(a, c int) int {
				ha, hc := ix.ObjectEntropy(a), ix.ObjectEntropy(c)
				switch {
				case ha > hc:
					return -1
				case ha < hc:
					return 1
				}
				return 0
			})
			sc := ix.NewHypoScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, o := range objects[:candidates] {
					hypoSink = sc.ConditionalUncertainty(o)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*candidates), "ns/candidate")
		})
	}
}
