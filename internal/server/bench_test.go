package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"crowdval"
)

// BenchmarkServerConcurrentIngest measures the serving-path ingestion
// throughput on the headline workload: sessions over 50 000 objects × 500
// workers at ~1% density (the BENCHMARKS.md shape), receiving batches of 100
// new crowd answers through the HTTP API. The sessions are exact
// (WithExact), so each ingest runs the full warm-started i-EM fold-in and
// this benchmarks the full serve → manager → session →
// aggregation stack, with concurrent clients spread over four sessions.
func BenchmarkServerConcurrentIngest(b *testing.B) {
	benchmarkIngest(b, crowdval.WithExact())
}

// BenchmarkDeltaIngest is BenchmarkServerConcurrentIngest with the
// delta-incremental path enabled on every session: identical workload,
// identical request stream, but each 100-answer batch re-aggregates only its
// dirty frontier before the full-sweep settle phase (plus server-side
// coalescing merging batches that pile up behind a slow aggregation). The
// answers/sec ratio between the two benchmarks is the delta path's headline
// number tracked in BENCHMARKS.md.
func BenchmarkDeltaIngest(b *testing.B) {
	benchmarkIngest(b, crowdval.WithDeltaIngest())
}

func benchmarkIngest(b *testing.B, extraOpts ...crowdval.Option) {
	const (
		numSessions = 4
		objects     = 50000
		workers     = 500
		batchSize   = 100
	)
	d, err := crowdval.GenerateCrowd(crowdval.CrowdConfig{
		NumObjects: objects, NumWorkers: workers, NumLabels: 2,
		AnswersPerObject: 5, // ≈1% density
		NormalAccuracy:   0.7,
		Mix:              crowdval.WorkerMix{Normal: 0.75, RandomSpammer: 0.25},
		Seed:             1,
	})
	if err != nil {
		b.Fatal(err)
	}
	manager, err := NewManager(ManagerConfig{ParkDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(New(manager))
	defer srv.Close()

	for i := 0; i < numSessions; i++ {
		// Each session ingests into its answer set in place, so every one
		// gets its own copy of the base answers.
		opts := append([]crowdval.Option{
			crowdval.WithStrategy(crowdval.StrategyBaseline), crowdval.WithSeed(int64(i)),
		}, extraOpts...)
		if err := manager.Create(context.Background(), fmt.Sprintf("bench-%d", i), d.Answers.Clone(), opts...); err != nil {
			b.Fatal(err)
		}
	}

	// Pre-build distinct ingest bodies so request construction is not what
	// is measured; answers are uniformly random (overwrites are fine).
	rng := rand.New(rand.NewSource(7))
	bodies := make([][]byte, 64)
	for i := range bodies {
		req := IngestRequest{Answers: make([]AnswerJSON, batchSize)}
		for j := range req.Answers {
			req.Answers[j] = AnswerJSON{
				Object: rng.Intn(objects),
				Worker: rng.Intn(workers),
				Label:  rng.Intn(2),
			}
		}
		raw, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = raw
	}

	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := srv.Client()
		for pb.Next() {
			i := next.Add(1)
			session := fmt.Sprintf("bench-%d", i%numSessions)
			body := bodies[i%int64(len(bodies))]
			resp, err := client.Post(srv.URL+"/v1/sessions/"+session+"/answers",
				"application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("ingest status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	})
	b.StopTimer()
	stats := manager.Stats()
	b.ReportMetric(float64(stats.IngestedAnswers)/b.Elapsed().Seconds(), "answers/sec")
}

// BenchmarkServerNext measures guidance selection through the serving stack
// on the headline 50 000 × 500 @ ~1% workload: concurrent clients GET
// /next?k=5 against four delta-scored sessions (uncertainty strategy,
// candidate limit 64 — the same candidate set BenchmarkNextObject scores).
// Selections are served under the per-session read lock, so concurrent next
// requests and result views proceed in parallel; the exact full-EM scorer on
// this shape costs hundreds of warm-EM runs per request and is benchmarked
// library-side as BenchmarkNextObject/50000x500/exact-full-em.
//
// Three variants; maintained/rebuild is guarded as a pair by
// scripts/benchguard (-pairs nextserve), parked/maintained as another
// (-pairs parkednext):
//
//   - maintained — the default serving configuration: the scoring index is
//     built once, patched in place across state changes, and repeated
//     selections of an unchanged state are served from the memoized ranking.
//   - rebuild — WithoutSelectionCache: every request rescans the candidate
//     set against a freshly reconciled index, the pre-maintained-view cost.
//   - parked — the maintained configuration under a one-byte memory budget,
//     with every session parked after its warm-up: each request is answered
//     from the ranking memo the session carried into the park, with no
//     resume. The benchmark fails if a timed request resumes a session.
func BenchmarkServerNext(b *testing.B) {
	b.Run("maintained", func(b *testing.B) { benchmarkServerNext(b, false) })
	b.Run("rebuild", func(b *testing.B) { benchmarkServerNext(b, false, crowdval.WithoutSelectionCache()) })
	b.Run("parked", func(b *testing.B) { benchmarkServerNext(b, true) })
}

// BenchmarkGlobalNext measures the marketplace read path: GET /v1/next?k=10
// ranks the next expert validations across every resident session — each
// budgeted with its own θ, scored under its per-session read lock from the
// maintained view, normalized to gain per unit cost and merged to the global
// top-k. The sweep over the resident-session count (1, 8, 64) shows how the
// fan-out scales; sessions are warm (index built, rankings memoized), so the
// steady-state cost is k-candidate reads plus the merge, per session.
//
// The 64-sessions/BenchmarkServerNext-maintained ratio is guarded by
// scripts/benchguard (-pairs globalnext): a global top-10 over 64 warm
// sessions must stay within an order of magnitude of one single-session
// served selection, the contract that makes the marketplace endpoint
// pollable at interactive rates.
func BenchmarkGlobalNext(b *testing.B) {
	// Named "N-sessions" rather than "sessions-N": benchguard strips a
	// trailing numeric dash suffix as the GOMAXPROCS marker, so a numeric
	// tail would make the 64-session variant unaddressable as a pair.
	for _, sessions := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%d-sessions", sessions), func(b *testing.B) {
			benchmarkGlobalNext(b, sessions)
		})
	}
}

func benchmarkGlobalNext(b *testing.B, numSessions int) {
	const (
		objects = 2000
		workers = 100
	)
	d, err := crowdval.GenerateCrowd(crowdval.CrowdConfig{
		NumObjects: objects, NumWorkers: workers, NumLabels: 2,
		AnswersPerObject: 5,
		NormalAccuracy:   0.7,
		Mix:              crowdval.WorkerMix{Normal: 0.75, RandomSpammer: 0.25},
		Seed:             1,
	})
	if err != nil {
		b.Fatal(err)
	}
	manager, err := NewManager(ManagerConfig{ParkDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(New(manager))
	defer srv.Close()

	for i := 0; i < numSessions; i++ {
		opts := []crowdval.Option{
			crowdval.WithStrategy(crowdval.StrategyUncertainty),
			crowdval.WithCandidateLimit(64),
			crowdval.WithDeltaScoring(),
			crowdval.WithSeed(int64(i)),
			crowdval.WithCostBudget(crowdval.CostTracker{Theta: 10 + float64(i), Budget: 1e6}),
		}
		if err := manager.Create(context.Background(), fmt.Sprintf("mkt-%d", i), d.Answers.Clone(), opts...); err != nil {
			b.Fatal(err)
		}
	}

	// Warm every session's maintained view, then the global endpoint once.
	for i := 0; i < numSessions; i++ {
		resp, err := srv.Client().Get(srv.URL + fmt.Sprintf("/v1/sessions/mkt-%d/next?k=10", i))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("warmup status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := srv.Client()
		for pb.Next() {
			resp, err := client.Get(srv.URL + "/v1/next?k=10")
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("global next status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	})
	b.StopTimer()
	stats := manager.Stats()
	b.ReportMetric(float64(stats.GlobalSelections)/b.Elapsed().Seconds(), "rankings/sec")
}

func benchmarkServerNext(b *testing.B, parked bool, extraOpts ...crowdval.Option) {
	const (
		numSessions = 4
		objects     = 50000
		workers     = 500
	)
	d, err := crowdval.GenerateCrowd(crowdval.CrowdConfig{
		NumObjects: objects, NumWorkers: workers, NumLabels: 2,
		AnswersPerObject: 5, // ≈1% density
		NormalAccuracy:   0.7,
		Mix:              crowdval.WorkerMix{Normal: 0.75, RandomSpammer: 0.25},
		Seed:             1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := ManagerConfig{ParkDir: b.TempDir()}
	if parked {
		cfg.MemoryBudget = 1
	}
	manager, err := NewManager(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(New(manager))
	defer srv.Close()

	for i := 0; i < numSessions; i++ {
		opts := append([]crowdval.Option{
			crowdval.WithStrategy(crowdval.StrategyUncertainty),
			crowdval.WithCandidateLimit(64),
			crowdval.WithDeltaScoring(),
			crowdval.WithSeed(int64(i)),
		}, extraOpts...)
		if err := manager.Create(context.Background(), fmt.Sprintf("next-%d", i), d.Answers.Clone(), opts...); err != nil {
			b.Fatal(err)
		}
	}

	// Warm every session once before the timer: the first selection after a
	// state change legitimately builds the scoring index in both variants,
	// and this benchmark measures the steady state between state changes.
	for i := 0; i < numSessions; i++ {
		resp, err := srv.Client().Get(srv.URL + fmt.Sprintf("/v1/sessions/next-%d/next?k=5", i))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("warmup status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if parked {
		// Under the one-byte budget every warm-up parked the session before
		// it; creating one more session parks the last.
		if err := manager.Create(context.Background(), "pad", testCrowd(b, 20, 4, 1).Answers); err != nil {
			b.Fatal(err)
		}
		if st := manager.Stats(); st.Parked != numSessions || st.CarriedMemoBytes == 0 {
			b.Fatalf("%d sessions parked carrying %d memo bytes, want %d with memos", st.Parked, st.CarriedMemoBytes, numSessions)
		}
	}
	resumes := manager.Stats().Resumes

	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := srv.Client()
		for pb.Next() {
			i := next.Add(1)
			session := fmt.Sprintf("next-%d", i%numSessions)
			resp, err := client.Get(srv.URL + "/v1/sessions/" + session + "/next?k=5")
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("next status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	})
	b.StopTimer()
	stats := manager.Stats()
	if stats.Resumes != resumes {
		b.Fatalf("%d timed requests resumed a session", stats.Resumes-resumes)
	}
	b.ReportMetric(float64(stats.Selections)/b.Elapsed().Seconds(), "selections/sec")
}
