package crowdval

import (
	"bytes"
	"context"
	"testing"

	"crowdval/internal/simulation"
	"crowdval/internal/wal"
)

// BenchmarkParkResume times one park/resume cycle of a serving tier, in
// memory, at the market workload's session shape (5 000 objects × 100
// workers, 7 answers per object, uncertainty-driven with 64 candidates): a
// park (Snapshot framed by wal.WriteCheckpoint, taking the ranking memo), a
// resume (wal.ParseCheckpoint and ResumeSession, adopting the memo) and the
// first NextObjects(5) after it.
//
//   - memo: the session was ranked before the park, so the first selection
//     after the resume is served from the carried memo.
//   - after-ingest: an ingest of 50 answers (untimed) moved the state after
//     the last ranking, so the memo is empty and the resumed session ranks.
func BenchmarkParkResume(b *testing.B) {
	const objects, workers, loaded, perObject = 5000, 100, 7, 9
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects: objects, NumWorkers: workers, NumLabels: 2,
		AnswersPerObject: perObject, NormalAccuracy: 0.7,
		Mix:  simulation.WorkerMix{Normal: 0.75, RandomSpammer: 0.25},
		Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	// The first answers of each object are the session's, the rest feed the
	// ingests.
	initial, err := NewAnswerSet(objects, workers, 2)
	if err != nil {
		b.Fatal(err)
	}
	var pool []Answer
	for o := 0; o < objects; o++ {
		for i, wa := range d.Answers.ObjectAnswers(o) {
			if i < loaded {
				_ = initial.SetAnswer(o, wa.Worker, wa.Label)
			} else {
				pool = append(pool, Answer{Object: o, Worker: wa.Worker, Label: wa.Label})
			}
		}
	}
	for _, variant := range []string{"memo", "after-ingest"} {
		b.Run(variant, func(b *testing.B) {
			s, err := NewSession(initial, WithStrategy(StrategyUncertainty), WithCandidateLimit(64), WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.NextObjects(5); err != nil {
				b.Fatal(err)
			}
			next := 0
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if variant == "after-ingest" {
					b.StopTimer()
					if next+50 > len(pool) {
						next = 0 // re-sent answers replace themselves: still a state change for the memo
					}
					if err := s.AddAnswers(context.Background(), pool[next:next+50]); err != nil {
						b.Fatal(err)
					}
					next += 50
					b.StartTimer()
				}
				buf.Reset()
				snap, err := s.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				if err := wal.WriteCheckpoint(&buf, 0, snap); err != nil {
					b.Fatal(err)
				}
				memo := s.TakeRankingMemo()
				_, parked, err := wal.ParseCheckpoint(buf.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				if s, err = ResumeSession(parked); err != nil {
					b.Fatal(err)
				}
				s.AdoptRankingMemo(memo)
				if _, err := s.NextObjects(5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
