package spamdetect

import (
	"math/rand"
	"testing"

	"crowdval/internal/model"
	"crowdval/internal/simulation"
)

// scoreSink keeps the compiler from dropping the benchmarked call.
var scoreSink float64

// BenchmarkSpammerScore times the score of one random row-stochastic m×m
// confusion matrix.
func BenchmarkSpammerScore(b *testing.B) {
	for _, tc := range []struct {
		name string
		m    int
	}{{"m2", 2}, {"m4", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			c := model.NewConfusionMatrix(tc.m)
			for l := 0; l < tc.m; l++ {
				for j := 0; j < tc.m; j++ {
					c.Set(model.Label(l), model.Label(j), rng.Float64())
				}
			}
			c.NormalizeRows()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scoreSink = scoreOf(SpammerScore(c))
			}
		})
	}
}

// BenchmarkDetect times one serial detection over the crowd shape of the
// perfbench validate workload: 10 000 binary objects with five answers
// each from 200 workers (a quarter of them random spammers), 200 objects
// validated.
func BenchmarkDetect(b *testing.B) {
	b.Run("10000x200", func(b *testing.B) {
		d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
			NumObjects:       10000,
			NumWorkers:       200,
			NumLabels:        2,
			AnswersPerObject: 5,
			NormalAccuracy:   0.7,
			Mix:              simulation.WorkerMix{Normal: 0.75, RandomSpammer: 0.25},
			Seed:             1,
		})
		if err != nil {
			b.Fatal(err)
		}
		validation := model.NewValidation(d.Answers.NumObjects())
		for _, o := range rand.New(rand.NewSource(2)).Perm(d.Answers.NumObjects())[:200] {
			validation.Set(o, d.Truth[o])
		}
		det := &Detector{Parallelism: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := det.Detect(d.Answers, validation, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
