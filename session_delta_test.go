package crowdval

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"crowdval/internal/aggregation"
	"crowdval/internal/rng"
	"crowdval/internal/snapshot"
)

// deltaParityTolerance is the documented posterior-agreement tolerance of
// the delta-incremental path: after any seeded history of ingests and
// validations, every posterior of a delta session lies within this bound of
// the same history replayed through the full path. It follows from the
// settle-phase certificate (each delta aggregation is a fixed point of the
// full EM within aggregation.DefaultSettleTolerance, and nearby fixed points
// of the same contraction lie within a small multiple of that tolerance).
// Deterministic labels agree wherever the full path's posterior margin
// exceeds this tolerance; inside the band the evidence is a near-tie and
// either label is defensible.
const deltaParityTolerance = 5e-2

// deltaHistoryOp is one scripted operation of a parity history. The same
// script drives the delta and the full session, so the two ends hold exactly
// the same evidence.
type deltaHistoryOp struct {
	answers     []Answer          // AddAnswers batch (nil = validation op)
	validations []ValidationInput // SubmitValidation(s) inputs
	snapshot    bool              // snapshot+resume the delta session first
}

// buildDeltaHistory scripts a seeded random history: ingest batches that hit
// existing and brand-new objects/workers, single and batched validations,
// and snapshot/resume injections on the delta side. Answers are biased
// toward the ground truth (like a real crowd) and validations assert it
// (like a real expert): posterior agreement between nearby EM fixed points
// is a property of plausible evidence, not of adversarial label noise, and
// the documented parity tolerance is calibrated for plausible histories.
func buildDeltaHistory(src *rng.SplitMix64, truth []Label, baseWorkers, labels, ops int) []deltaHistoryOp {
	history := make([]deltaHistoryOp, 0, ops)
	truth = append([]Label(nil), truth...)
	numWorkers := baseWorkers
	validated := make(map[int]bool)
	nextUnvalidated := func() int {
		for o := range truth {
			if !validated[o] {
				return o
			}
		}
		return -1
	}
	for i := 0; i < ops; i++ {
		op := deltaHistoryOp{snapshot: i > 0 && i%5 == 0}
		switch src.Uint64() % 3 {
		case 0, 1: // ingest batch, occasionally growing the session
			batch := int(src.Uint64()%8) + 3
			for j := 0; j < batch; j++ {
				o := int(src.Uint64() % uint64(len(truth)+1)) // may equal len = growth
				w := int(src.Uint64() % uint64(numWorkers+1))
				if o >= len(truth) {
					truth = append(truth, Label(src.Uint64()%uint64(labels)))
				}
				label := truth[o]
				if src.Uint64()%4 == 0 { // a quarter of the crowd answers are wrong
					label = Label(src.Uint64() % uint64(labels))
				}
				op.answers = append(op.answers, Answer{Object: o, Worker: w, Label: label})
				if w >= numWorkers {
					numWorkers = w + 1
				}
			}
		case 2: // one or two expert validations of the ground truth
			count := int(src.Uint64()%2) + 1
			for j := 0; j < count; j++ {
				o := nextUnvalidated()
				if o < 0 {
					break
				}
				validated[o] = true
				op.validations = append(op.validations, ValidationInput{Object: o, Label: truth[o]})
			}
		}
		if op.answers != nil || op.validations != nil {
			history = append(history, op)
		}
	}
	return history
}

// TestDeltaParityRandomHistories is the delta path's behavioural contract:
// seeded random histories of AddAnswers / SubmitValidation(s), replayed
// through a delta session (with snapshot+resume churn injected mid-stream)
// and through a plain full-path session, must end fixed-point-equivalent —
// the delta session's state carries an explicit full-sweep certificate, all
// posteriors agree within deltaParityTolerance, and deterministic labels
// agree outside the tolerance band. Subtests run in parallel, so `go test
// -race` also covers the aggregation internals for shared-state races
// between concurrent sessions.
func TestDeltaParityRandomHistories(t *testing.T) {
	const (
		baseObjects = 36
		baseWorkers = 10
		labels      = 2
		ops         = 14
	)
	for _, seed := range []int64{3, 17, 92} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			d, err := GenerateCrowd(CrowdConfig{
				NumObjects: baseObjects, NumWorkers: baseWorkers, NumLabels: labels,
				AnswersPerObject: 5, NormalAccuracy: 0.75, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			history := buildDeltaHistory(rng.New(seed+1000), d.Truth, baseWorkers, labels, ops)

			opts := []Option{WithStrategy(StrategyBaseline), WithSeed(seed)}
			deltaSession, err := NewSession(d.Answers.Clone(), append([]Option{WithDeltaIngest()}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			fullSession, err := NewSession(d.Answers.Clone(), append([]Option{WithExact()}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			for i, op := range history {
				if op.snapshot {
					data, err := deltaSession.Snapshot()
					if err != nil {
						t.Fatalf("op %d: snapshot: %v", i, err)
					}
					deltaSession, err = ResumeSession(data)
					if err != nil {
						t.Fatalf("op %d: resume: %v", i, err)
					}
				}
				for _, s := range []*Session{deltaSession, fullSession} {
					switch {
					case op.answers != nil:
						if err := s.AddAnswers(ctx, op.answers); err != nil {
							t.Fatalf("op %d: AddAnswers: %v", i, err)
						}
					case len(op.validations) == 1:
						if _, err := s.SubmitValidation(op.validations[0].Object, op.validations[0].Label); err != nil {
							t.Fatalf("op %d: SubmitValidation: %v", i, err)
						}
					default:
						if _, err := s.SubmitValidations(ctx, op.validations); err != nil {
							t.Fatalf("op %d: SubmitValidations: %v", i, err)
						}
					}
				}
			}

			if deltaSession.Counters().DeltaIterations == 0 {
				t.Fatal("the delta path never ran a frontier iteration over the whole history")
			}
			if fullSession.Counters().DeltaIterations != 0 {
				t.Fatal("the full-path session ran delta iterations")
			}

			// (1) Fixed-point certificate, asserted explicitly: one full
			// E-step moves the delta session's final state by no more than
			// the settle tolerance (×2 slack for the trailing M-step).
			residual, err := aggregation.FixedPointResidual(ctx, deltaSession.ProbabilisticResult(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if residual >= 2*aggregation.DefaultSettleTolerance {
				t.Fatalf("delta session is not a full-EM fixed point: residual %g (settle tol %g)",
					residual, aggregation.DefaultSettleTolerance)
			}

			// (2) Posterior agreement within the documented tolerance.
			deltaProb := deltaSession.ProbabilisticResult().Assignment
			fullProb := fullSession.ProbabilisticResult().Assignment
			if deltaProb.NumObjects() != fullProb.NumObjects() {
				t.Fatalf("sessions diverged in size: %d vs %d objects", deltaProb.NumObjects(), fullProb.NumObjects())
			}
			for o := 0; o < deltaProb.NumObjects(); o++ {
				for l := 0; l < labels; l++ {
					diff := math.Abs(deltaProb.Prob(o, Label(l)) - fullProb.Prob(o, Label(l)))
					if diff > deltaParityTolerance {
						t.Fatalf("object %d label %d: posterior %g (delta) vs %g (full), diff %g > %g",
							o, l, deltaProb.Prob(o, Label(l)), fullProb.Prob(o, Label(l)), diff, deltaParityTolerance)
					}
				}
			}

			// (3) Label agreement outside the tolerance band.
			deltaLabels := deltaSession.Result()
			fullLabels := fullSession.Result()
			for o := range fullLabels {
				best, margin := fullProb.MostLikely(o)
				if margin >= 0.5+deltaParityTolerance && deltaLabels[o] != fullLabels[o] {
					t.Fatalf("object %d: label %d (delta) vs %d (full) despite full-path confidence %g in %d",
						o, deltaLabels[o], fullLabels[o], margin, best)
				}
			}
		})
	}
}

// TestDeltaSnapshotCarriesConfig: the delta configuration survives the
// snapshot/resume round trip, so a parked-and-resumed serving session keeps
// its fast ingest path, while the snapshot's parallel-scoring flag and delta
// dirty fraction are ignored. A snapshot edited to carry Parallel = true and
// DeltaMaxDirtyFraction = 0.5 resumes into a session whose rankings,
// validation steps and counters equal those of the unedited snapshot's
// resume — an ingest dirtying 40% of the objects falls back to the full
// sweep on both — and whose own snapshot carries false and 0 again.
func TestDeltaSnapshotCarriesConfig(t *testing.T) {
	d, err := GenerateCrowd(CrowdConfig{NumObjects: 60, NumWorkers: 12, NumLabels: 2, AnswersPerObject: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d.Answers, WithStrategy(StrategyHybrid), WithCandidateLimit(16), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Parallel || st.DeltaMaxDirtyFraction != 0 {
		t.Fatalf("a session wrote Parallel = %v, DeltaMaxDirtyFraction = %v", st.Parallel, st.DeltaMaxDirtyFraction)
	}
	st.Parallel, st.DeltaMaxDirtyFraction = true, 0.5
	edited, err := ResumeSession(snapshot.Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ResumeSession(data)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for step := 0; step < 4; step++ {
		got, want := mustNextObjects(t, edited, 5), mustNextObjects(t, plain, 5)
		sameBits(t, got, want, fmt.Sprintf("step %d", step))
		object := want[0].Object
		gotInfo, err := edited.SubmitValidation(object, d.Truth[object])
		if err != nil {
			t.Fatal(err)
		}
		wantInfo, err := plain.SubmitValidation(object, d.Truth[object])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotInfo, wantInfo) {
			t.Fatalf("step %d: validation %+v, want %+v", step, gotInfo, wantInfo)
		}
		batch := []Answer{{Object: step, Worker: step % 12, Label: d.Truth[step]}}
		if step == 2 {
			// 24 of 60 objects: above the 25% fallback, below the edited 50%.
			batch = batch[:0]
			for o := 0; o < 24; o++ {
				batch = append(batch, Answer{Object: o, Worker: (o + 5) % 12, Label: d.Truth[o]})
			}
		}
		if err := edited.AddAnswers(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if err := plain.AddAnswers(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	counters := edited.Counters()
	if counters != plain.Counters() {
		t.Fatalf("counters %+v, want %+v", counters, plain.Counters())
	}
	if counters.DeltaIterations == 0 || counters.DeltaLargeFrontier == 0 {
		t.Fatalf("counters %+v: want delta iterations and a large-frontier fallback", counters)
	}
	again, err := edited.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("the edited snapshot's resume snapshots differently from the plain one's")
	}
	if st, err = snapshot.Decode(again); err != nil {
		t.Fatal(err)
	}
	if !st.DeltaEnabled || st.Parallel || st.DeltaMaxDirtyFraction != 0 {
		t.Fatalf("resumed snapshot: delta %v, parallel %v, fraction %v", st.DeltaEnabled, st.Parallel, st.DeltaMaxDirtyFraction)
	}
}

// TestDeltaSessionMatchesFullOnIdenticalEvidence is the one-shot sibling of
// the history test: a single ingest through each path, compared directly.
func TestDeltaSessionMatchesFullOnIdenticalEvidence(t *testing.T) {
	d, err := GenerateCrowd(CrowdConfig{
		NumObjects: 50, NumWorkers: 12, NumLabels: 2, AnswersPerObject: 5,
		NormalAccuracy: 0.8, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Answer{{Object: 3, Worker: 1, Label: d.Truth[3]}, {Object: 30, Worker: 4, Label: d.Truth[30]}}

	deltaSession, err := NewSession(d.Answers.Clone(), WithStrategy(StrategyBaseline), WithDeltaIngest())
	if err != nil {
		t.Fatal(err)
	}
	fullSession, err := NewSession(d.Answers.Clone(), WithStrategy(StrategyBaseline))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := deltaSession.AddAnswers(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := fullSession.AddAnswers(ctx, batch); err != nil {
		t.Fatal(err)
	}
	dp, fp := deltaSession.ProbabilisticResult().Assignment, fullSession.ProbabilisticResult().Assignment
	for o := 0; o < dp.NumObjects(); o++ {
		for l := 0; l < 2; l++ {
			if diff := math.Abs(dp.Prob(o, Label(l)) - fp.Prob(o, Label(l))); diff > deltaParityTolerance {
				t.Fatalf("object %d: posterior diff %g exceeds %g", o, diff, deltaParityTolerance)
			}
		}
	}
}
