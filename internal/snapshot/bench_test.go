package snapshot

import (
	"math/rand"
	"testing"
)

// marketState builds a session state at the market workload's shape: 5 000
// objects × 100 workers with 2 labels, 7 answers per object from distinct
// workers in (object, worker) order as a session snapshot holds them, 20
// validated objects, each with its history record, and the probabilistic
// state of that size.
func marketState() *State {
	const objects, workers, labels, perObject, validated = 5000, 100, 2, 7, 20
	rng := rand.New(rand.NewSource(7))
	st := &State{
		Strategy: "uncertainty", CandidateLimit: 64, Parallelism: 2, Seed: 1,
		NumObjects: objects, NumWorkers: workers, NumLabels: labels,
		Validation:   make([]int64, objects),
		Assignment:   make([]float64, objects*labels),
		Confusions:   make([]float64, workers*labels*labels),
		DeltaEnabled: true, DeltaMaxDirtyFraction: 0.25, DeltaScoring: true,
	}
	for o := 0; o < objects; o++ {
		st.Validation[o] = -1
		chosen := rng.Perm(workers)[:perObject]
		for w := 0; w < workers; w++ {
			for _, c := range chosen {
				if c == w {
					st.AnswerObjects = append(st.AnswerObjects, int64(o))
					st.AnswerWorkers = append(st.AnswerWorkers, int64(w))
					st.AnswerLabels = append(st.AnswerLabels, int64(rng.Intn(labels)))
				}
			}
		}
		p := rng.Float64()
		st.Assignment[2*o], st.Assignment[2*o+1] = p, 1-p
	}
	for i := range st.Confusions {
		st.Confusions[i] = rng.Float64()
	}
	for i := 0; i < validated; i++ {
		o := rng.Intn(objects)
		st.Validation[o] = int64(rng.Intn(labels))
		st.History = append(st.History, HistoryRecord{
			Iteration: int64(i + 1), Object: int64(o), Label: st.Validation[o],
			ErrorRate: rng.Float64(), Uncertainty: rng.Float64() * objects, EMIterations: 3,
			Revised: []int64{int64(rng.Intn(objects)), int64(rng.Intn(objects))},
		})
	}
	st.Iteration, st.EffortSpent = validated, validated
	return st
}

// BenchmarkSnapshotCodec times Encode and Decode of one market-shaped
// session state separately (see marketState) and reports the encoding's
// size per answer.
func BenchmarkSnapshotCodec(b *testing.B) {
	st := marketState()
	data := Encode(st)
	perAnswer := float64(len(data)) / float64(len(st.AnswerObjects))
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			data = Encode(st)
		}
		b.ReportMetric(perAnswer, "B/answer")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(perAnswer, "B/answer")
	})
}
