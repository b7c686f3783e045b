package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"crowdval"
	"crowdval/internal/server"
)

// Market workload: marketplace reads beside writes over a working set larger
// than the manager's memory budget, so sessions park and resume. Two
// closed-loop clients each own half the sessions and run a fixed seeded op
// list: 40% ingest of 50 answers, 30% GET /next?k=5, 20% GET /v1/next?k=10,
// 10% expert step.
const (
	marketSessions       = 32
	marketIngestBatch    = 50
	marketNextK          = 5
	marketGlobalK        = 10
	marketCandidateLimit = 64
	// marketOpsPerSecond sizes the op lists: each client runs
	// marketOpsPerSecond × seconds / 2 ops. The reference box (2 vCPUs)
	// completes about 54 mixed ops/s, so the timed phase takes about
	// -seconds there and the work is fixed per seed.
	marketOpsPerSecond = 54.0
)

// marketThetas are the expert-to-crowd cost ratios the sessions cycle
// through; every budget funds 1000 validations, so none runs out.
var marketThetas = []float64{4, 8, 12.5, 25}

type marketOp struct {
	kind    opKind // opIngest, opNext or opStep; global marks a GET /v1/next
	global  bool
	spec    *sessionSpec
	body    []byte
	answers []server.AnswerJSON
}

func runMarket(cfg config) (*report, error) {
	objects, workers, extra, sessions := 5000, 100, 2, marketSessions
	perClient := max(1, int(marketOpsPerSecond*cfg.seconds/maxConns+0.5))
	if cfg.tiny {
		objects, workers, extra, sessions, perClient = 200, 20, 8, 8, 40
	}
	specs := make([]*sessionSpec, sessions)
	known := make(map[string]bool, sessions)
	for i := range specs {
		d, err := makeDataset(objects, workers, 5, extra, cfg.seed*100+int64(i))
		if err != nil {
			return nil, err
		}
		theta := marketThetas[i%len(marketThetas)]
		specs[i] = newSessionSpec(fmt.Sprintf("market-%02d", i), i%maxConns, d, server.SessionConfig{
			Strategy: "uncertainty", CandidateLimit: marketCandidateLimit, Delta: true, DeltaScoring: true,
			CostBudget: 1000 * theta, CostTheta: theta, Seed: cfg.seed*100 + int64(i) + 1,
		})
		specs[i].stream = d.stream(cfg.seed)
		known[specs[i].name] = true
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	plans := make([][]*marketOp, maxConns)
	for c := range plans {
		var mine []*sessionSpec
		for _, s := range specs {
			if s.client == c {
				mine = append(mine, s)
			}
		}
		for i := 0; i < perClient; i++ {
			o := &marketOp{spec: mine[rng.Intn(len(mine))]}
			switch r := rng.Float64(); {
			case r < 0.4:
				o.kind = opIngest
				var err error
				if o.answers, err = o.spec.nextBatch(marketIngestBatch); err != nil {
					return nil, err
				}
				if o.body, err = json.Marshal(server.IngestRequest{Answers: o.answers}); err != nil {
					return nil, err
				}
			case r < 0.7:
				o.kind = opNext
			case r < 0.9:
				o.global = true
			default:
				o.kind = opStep
			}
			plans[c] = append(plans[c], o)
		}
	}

	// Half the sessions' estimated resident size: the LRU keeps parking and
	// resuming sessions throughout the run.
	budget, err := residentEstimate(specs[0])
	if err != nil {
		return nil, err
	}
	budget = budget * int64(sessions) / 2
	e, err := newEnv(cfg.workDir, budget)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rep := &report{endToEnd: map[string]float64{}}
	setup, err := e.createAll(specs)
	if err != nil {
		return nil, err
	}
	settleMemory()

	before := e.manager.Stats()
	rss := startRSSSampler()
	classes := []string{"ingest", "next", "global", "step"}
	lat := make([]map[string]*latencies, maxConns)
	globals := make([][]globalOp, maxConns)
	start := time.Now()
	err = forClients(func(c int) error {
		lat[c] = map[string]*latencies{}
		for _, cl := range classes {
			lat[c][cl] = &latencies{}
		}
		for _, o := range plans[c] {
			t0 := time.Now()
			switch {
			case o.global:
				rep.attempt()
				var resp server.GlobalNextResponse
				if err := e.do(http.MethodGet, fmt.Sprintf("/v1/next?k=%d", marketGlobalK), nil, &resp); err != nil {
					rep.fail("global next: %v", err)
					continue
				}
				lat[c]["global"].add(time.Since(t0))
				globals[c] = append(globals[c], globalOp{k: marketGlobalK, candidates: resp.Candidates})
			case o.kind == opIngest:
				rep.attempt()
				var resp server.IngestResponse
				if err := e.do(http.MethodPost, "/v1/sessions/"+o.spec.name+"/answers", o.body, &resp); err != nil {
					rep.fail("ingest into %s: %v", o.spec.name, err)
					continue
				}
				lat[c]["ingest"].add(time.Since(t0))
				o.spec.log = append(o.spec.log, op{kind: opIngest, answers: o.answers})
			case o.kind == opNext:
				rep.attempt()
				var resp server.NextResponse
				path := fmt.Sprintf("/v1/sessions/%s/next?k=%d", o.spec.name, marketNextK)
				if err := e.do(http.MethodGet, path, nil, &resp); err != nil {
					rep.fail("next on %s: %v", o.spec.name, err)
					continue
				}
				lat[c]["next"].add(time.Since(t0))
				o.spec.log = append(o.spec.log, op{kind: opNext, k: marketNextK, ranking: resp.Ranking})
			case o.kind == opStep:
				if _, ok := step(e, o.spec, rep); ok {
					lat[c]["step"].add(time.Since(t0))
				}
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	peak := rss.finish()
	stats := statsDelta(e.manager.Stats(), before)

	var allGlobals []globalOp
	for _, gs := range globals {
		for _, g := range gs {
			if err := checkGlobal(g, known); err != nil {
				rep.fail("%v", err)
			}
		}
		allGlobals = append(allGlobals, gs...)
	}
	prec, err := verify(e, specs, rep)
	if err != nil {
		return nil, err
	}
	checkPrecisionRepeat(cfg, prec, rep)

	by := func(cl string) []float64 {
		var out []float64
		for c := range lat {
			out = append(out, *lat[c][cl]...)
		}
		return out
	}
	next, global := by("next"), by("global")
	var all []float64
	for _, cl := range classes {
		all = append(all, by(cl)...)
	}
	rep.endToEnd["setup_s"] = setup
	rep.endToEnd["peak_rss_mb"] = peak
	rep.endToEnd["precision"] = prec
	rep.endToEnd["next_p95_ms"] = quantile(next, 0.95)
	rep.endToEnd["op_p95_ms"] = quantile(all, 0.95)
	rep.name("market_ops_per_s", float64(len(all))/elapsed.Seconds(), "ops/s", len(all))
	rep.name("op_p50_ms", median(all), "ms", len(all))
	rep.name("next_p50_ms", median(next), "ms", len(next))
	rep.name("next_p95_ms", quantile(next, 0.95), "ms", len(next))
	rep.name("global_next_p50_ms", median(global), "ms", len(global))
	rep.name("global_next_p95_ms", quantile(global, 0.95), "ms", len(global))
	rep.name("ingest_p50_ms", median(by("ingest")), "ms", len(by("ingest")))
	rep.name("step_p50_ms", median(by("step")), "ms", len(by("step")))
	rep.name("memory_budget_mb", float64(budget)/(1<<20), "MB", sessions)

	countLayers(rep, stats)
	if cfg.trace {
		if err := traceWorkload(cfg, rep, specs, allGlobals); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// residentEstimate is the library's memory estimate of a freshly created
// session of the spec.
func residentEstimate(s *sessionSpec) (int64, error) {
	answers, err := answerSet(s.create)
	if err != nil {
		return 0, err
	}
	sess, err := crowdval.NewSession(answers, libraryOptions(s.create.Options)...)
	if err != nil {
		return 0, err
	}
	return sess.MemoryEstimate(), nil
}
