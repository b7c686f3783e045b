package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"crowdval/internal/server"
)

// Validate workload: the paper's expert loop. Each client is a closed-loop
// expert over its two sessions: GET /next?k=1, then POST /validations with
// the ground-truth label, until every session has spent its fixed effort
// budget.
const (
	validateSessions       = 4
	validateCandidateLimit = 64
	// validateNominalRate is the expert steps/s over both clients on the
	// reference box (2 vCPUs). Each session's effort budget is
	// validateNominalRate × seconds / sessions, so the timed phase takes
	// about -seconds there and the effort, hence precision, is fixed.
	validateNominalRate = 30.0
)

func runValidate(cfg config) (*report, error) {
	objects, workers := 10000, 200
	budget := max(1, int(validateNominalRate*cfg.seconds/validateSessions+0.5))
	if cfg.tiny {
		objects, workers, budget = 300, 30, 6
	}
	specs := make([]*sessionSpec, validateSessions)
	for i := range specs {
		d, err := makeDataset(objects, workers, 5, 0, cfg.seed*100+int64(i))
		if err != nil {
			return nil, err
		}
		specs[i] = newSessionSpec(fmt.Sprintf("validate-%d", i), i/2%maxConns, d, server.SessionConfig{
			Strategy: "uncertainty", CandidateLimit: validateCandidateLimit, DeltaScoring: true,
			Budget: budget, Seed: cfg.seed*100 + int64(i) + 1,
		})
	}

	e, err := newEnv(cfg.workDir, 0)
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
	stepLat := make([]latencies, maxConns)
	nextLat := make([]latencies, maxConns)
	submitLat := make([]latencies, maxConns)
	start := time.Now()
	err = forClients(func(c int) error {
		var mine []*sessionSpec
		for _, s := range specs {
			if s.client == c {
				mine = append(mine, s)
			}
		}
		for round := 0; round < budget; round++ {
			for _, s := range mine {
				t0 := time.Now()
				o, ok := step(e, s, rep)
				if !ok {
					continue
				}
				stepLat[c].add(time.Since(t0))
				nextLat[c].add(o.nextTook)
				submitLat[c].add(o.submitTook)
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

	prec, err := verify(e, specs, rep)
	if err != nil {
		return nil, err
	}
	checkPrecisionRepeat(cfg, prec, rep)

	steps, next, sub := merge(stepLat), merge(nextLat), merge(submitLat)
	rep.endToEnd["setup_s"] = setup
	rep.endToEnd["peak_rss_mb"] = peak
	rep.endToEnd["precision"] = prec
	rep.endToEnd["next_p95_ms"] = quantile(next, 0.95)
	rep.endToEnd["op_p95_ms"] = quantile(steps, 0.95)
	rep.name("steps_per_s", float64(len(steps))/elapsed.Seconds(), "steps/s", len(steps))
	rep.name("step_p50_ms", median(steps), "ms", len(steps))
	rep.name("step_p95_ms", quantile(steps, 0.95), "ms", len(steps))
	rep.name("next_part_p50_ms", median(next), "ms", len(next))
	rep.name("next_part_p95_ms", quantile(next, 0.95), "ms", len(next))
	rep.name("submit_part_p50_ms", median(sub), "ms", len(sub))
	rep.name("submit_part_p95_ms", quantile(sub, 0.95), "ms", len(sub))
	rep.name("precision", prec, "ratio", budget*validateSessions)

	countLayers(rep, stats)
	if cfg.trace {
		if err := traceWorkload(cfg, rep, specs, nil); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// stepTiming splits one expert step into its two requests.
type stepTiming struct {
	nextTook, submitTook time.Duration
}

// step runs one expert step on a session — the next question, then the
// expert's ground-truth answer to it — and logs it on success.
func step(e *env, s *sessionSpec, rep *report) (stepTiming, bool) {
	rep.attempt()
	var t stepTiming
	t0 := time.Now()
	var next server.NextResponse
	if err := e.do(http.MethodGet, "/v1/sessions/"+s.name+"/next?k=1", nil, &next); err != nil {
		rep.fail("next on %s: %v", s.name, err)
		return t, false
	}
	t.nextTook = time.Since(t0)
	label := s.data.truth[next.Object]
	body, err := json.Marshal(server.SubmitRequest{Validations: []server.ValidationJSON{{Object: next.Object, Label: label}}})
	if err != nil {
		rep.fail("encoding validation: %v", err)
		return t, false
	}
	t1 := time.Now()
	var resp server.SubmitResponse
	if err := e.do(http.MethodPost, "/v1/sessions/"+s.name+"/validations", body, &resp); err != nil {
		rep.fail("validation on %s: %v", s.name, err)
		return t, false
	}
	t.submitTook = time.Since(t1)
	if len(resp.Steps) != 1 {
		rep.fail("validation on %s answered %d steps", s.name, len(resp.Steps))
		return t, false
	}
	s.log = append(s.log, op{kind: opStep, ranking: next.Ranking, object: next.Object, label: label, step: resp.Steps[0]})
	return t, true
}
