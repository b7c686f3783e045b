package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"crowdval"
	"crowdval/internal/aggregation"
	"crowdval/internal/guidance"
	"crowdval/internal/server"
	"crowdval/internal/spamdetect"
	"crowdval/internal/wal"
)

// The traced run replays a prefix of the recorded operation streams one depth
// at a time, on fresh state, serially:
//
//	depth 0  the HTTP handler, in process (JSON decode/encode + everything below)
//	depth 1  server.Manager (locking, WAL, parking + everything below)
//	depth 2  a bare crowdval.Session (the core engine)
//	layers   the layer functions, called on the state each op starts from
//
// Spans are taken from the benchmark's own files, around each call. Every
// depth replays twice, in the order H M S S M H, and each op keeps the
// shorter of its two durations, so a collection pause or a disk stall in one
// replay does not land in a layer's self time. A layer's self time is the
// median over its ops of its depth's duration minus the next depth's. The
// HTTP depth also replays twice without per-op spans, first and last
// (P H M S S M H P): the traced HTTP replays' wall time against the plain
// ones' is the tracing overhead.

// traceCaps bound how much of the streams the traced run replays, so the
// replay adds seconds, not minutes, to a run.
type traceCaps struct {
	sessions   int // traced sessions, the first client's first ones
	perSession int // ops per traced session
	globals    int // global next requests
}

var traceCapsFor = map[string]traceCaps{
	"validate": {sessions: 2, perSession: 8},
	"market":   {sessions: 6, perSession: 5, globals: 3},
}

// event is one step of the traced script: a per-session op, or a global next
// when spec is nil.
type event struct {
	spec *sessionSpec
	op   op
	k    int
}

// timing is one event's duration at one depth. For an expert step, main is
// the next-question part and submit the validation part.
type timing struct {
	main, submit time.Duration
}

// depthRun is what one depth's replay measured.
type depthRun struct {
	creates []time.Duration // per traced session
	ops     []timing        // per script event
	opsWall time.Duration   // wall time of the script after the creations
	// resident lists, per global next event of the manager depth, the
	// sessions that were resident (and so ranked) when it ran.
	resident map[int][]string
}

// faster keeps, per creation and per op, the shorter duration of two
// replays of the same depth.
func faster(a, b depthRun) depthRun {
	out := a
	out.creates = make([]time.Duration, len(a.creates))
	for i := range a.creates {
		out.creates[i] = min(a.creates[i], b.creates[i])
	}
	out.ops = make([]timing, len(a.ops))
	for i := range a.ops {
		out.ops[i] = timing{main: min(a.ops[i].main, b.ops[i].main), submit: min(a.ops[i].submit, b.ops[i].submit)}
	}
	return out
}

func traceWorkload(cfg config, rep *report, specs []*sessionSpec, globals []globalOp) error {
	caps := traceCapsFor[cfg.workload]
	var traced []*sessionSpec
	for _, s := range specs {
		if s.client == 0 && len(traced) < caps.sessions {
			traced = append(traced, s)
		}
	}
	script := traceScript(traced, caps, len(globals))
	var budget int64
	if cfg.workload == "market" {
		est, err := residentEstimate(traced[0])
		if err != nil {
			return err
		}
		budget = est * int64(len(traced)) / 2
	}

	// runs[i] is replay i of P H M S S M H P; only the first session replay
	// calls the layer functions.
	var runs [8]depthRun
	lay := &layerSpans{}
	replays := []func(dir string) (depthRun, error){
		func(dir string) (depthRun, error) { return replayHTTP(dir, budget, traced, script, false) },
		func(dir string) (depthRun, error) { return replayHTTP(dir, budget, traced, script, true) },
		func(dir string) (depthRun, error) { return replayManager(dir, budget, traced, script) },
		func(dir string) (depthRun, error) { return replaySessions(dir, traced, script, runs[2].resident, lay) },
		func(dir string) (depthRun, error) { return replaySessions(dir, traced, script, runs[2].resident, nil) },
		func(dir string) (depthRun, error) { return replayManager(dir, budget, traced, script) },
		func(dir string) (depthRun, error) { return replayHTTP(dir, budget, traced, script, true) },
		func(dir string) (depthRun, error) { return replayHTTP(dir, budget, traced, script, false) },
	}
	for i, replay := range replays {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%d", i))
		r, err := replay(dir)
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err != nil {
			return fmt.Errorf("traced replay %d: %w", i, err)
		}
		runs[i] = r
	}
	httpRun, mgrRun, sessRun := faster(runs[1], runs[6]), faster(runs[2], runs[5]), faster(runs[3], runs[4])

	l := rep.perLayer
	self := func(kind string, upper, lower depthRun) float64 {
		var diffs []float64
		for i, ev := range script {
			if d, ok := pick(kind, ev, upper.ops[i]); ok {
				e, _ := pick(kind, ev, lower.ops[i])
				diffs = append(diffs, ms(d)-ms(e))
			}
		}
		return medianOrZero(diffs)
	}
	for _, kind := range []string{"ingest", "next", "submit", "global_next"} {
		l["server.http_self_ms."+kind] = self(kind, httpRun, mgrRun)
		l["manager.self_ms."+kind] = self(kind, mgrRun, sessRun)
	}
	var createDiffs []float64
	for i := range traced {
		createDiffs = append(createDiffs, ms(httpRun.creates[i])-ms(mgrRun.creates[i]))
	}
	l["server.http_self_ms.create"] = medianOrZero(createDiffs)
	l["core.create_s"] = meanMs(sessRun.creates) / 1000
	var ingest, submit []float64
	for i, ev := range script {
		if d, ok := pick("ingest", ev, sessRun.ops[i]); ok {
			ingest = append(ingest, ms(d))
		}
		if d, ok := pick("submit", ev, sessRun.ops[i]); ok {
			submit = append(submit, ms(d))
		}
	}
	l["core.add_answers_ms"] = mean(ingest)
	l["core.submit_ms"] = mean(submit)
	l["core.next_rescan_ms"] = mean(lay.nextRescan)
	l["core.next_memo_ms"] = mean(lay.nextMemo)
	if n := len(lay.nextRescan) + len(lay.nextMemo); n > 0 {
		l["core.memo_hit_frac"] = float64(len(lay.nextMemo)) / float64(n)
	}
	l["aggregation.em_ms"] = mean(lay.em)
	l["aggregation.index_ms"] = mean(lay.index)
	l["guidance.rank_ms"] = mean(lay.rank)
	l["guidance.candidates_per_rank"] = mean(lay.candidates)
	l["spamdetect.detect_ms"] = mean(lay.detect)
	l["wal.append_ms"] = mean(lay.walAppend)
	l["wal.sync_ms"] = mean(lay.walSync)
	l["wal.checkpoint_ms"] = mean(lay.checkpoint)
	l["snapshot.bytes"] = mean(lay.snapshotBytes)
	l["snapshot.encode_ms"] = mean(lay.encode)
	l["snapshot.decode_ms"] = mean(lay.decode)
	tracedWall := (runs[1].opsWall + runs[6].opsWall).Seconds()
	plainWall := (runs[0].opsWall + runs[7].opsWall).Seconds()
	l["trace.overhead_frac"] = (tracedWall - plainWall) / plainWall
	rep.name("trace.events", float64(len(script)), "count", len(script))
	return nil
}

// traceScript interleaves the first caps.perSession ops of every traced
// session round-robin and, when the workload has global reads, puts one
// global next after every four session ops, up to caps.globals.
func traceScript(traced []*sessionSpec, caps traceCaps, recordedGlobals int) []event {
	var script []event
	globals := min(caps.globals, recordedGlobals)
	for i := 0; i < caps.perSession; i++ {
		for _, s := range traced {
			if i >= len(s.log) {
				continue
			}
			script = append(script, event{spec: s, op: s.log[i]})
			if globals > 0 && len(script)%5 == 4 {
				script = append(script, event{k: marketGlobalK})
				globals--
			}
		}
	}
	return script
}

// pick returns the duration of the given kind an event has at one depth.
func pick(kind string, ev event, t timing) (time.Duration, bool) {
	switch {
	case ev.spec == nil:
		return t.main, kind == "global_next"
	case ev.op.kind == opIngest:
		return t.main, kind == "ingest"
	case ev.op.kind == opNext:
		return t.main, kind == "next"
	case kind == "next":
		return t.main, true
	default:
		return t.submit, kind == "submit"
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func meanMs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return mean(xs)
}

// replayHTTP is depth 0: every request goes through the server's handler in
// process. Request bodies are encoded before timing. With spans false only
// the wall time is taken.
func replayHTTP(dir string, budget int64, traced []*sessionSpec, script []event, spans bool) (depthRun, error) {
	m, err := newManager(dir, budget)
	if err != nil {
		return depthRun{}, err
	}
	h := server.New(m)
	type req struct {
		method, path string
		body         []byte
	}
	call := func(r req) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body)))
		if rec.Code < 200 || rec.Code > 299 {
			return fmt.Errorf("%s %s: status %d: %s", r.method, r.path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return nil
	}
	creates := make([]req, len(traced))
	for i, s := range traced {
		body, err := json.Marshal(s.create)
		if err != nil {
			return depthRun{}, err
		}
		creates[i] = req{http.MethodPost, "/v1/sessions", body}
	}
	reqs := make([][]req, len(script))
	for i, ev := range script {
		switch {
		case ev.spec == nil:
			reqs[i] = []req{{http.MethodGet, fmt.Sprintf("/v1/next?k=%d", ev.k), nil}}
		case ev.op.kind == opIngest:
			body, err := json.Marshal(server.IngestRequest{Answers: ev.op.answers})
			if err != nil {
				return depthRun{}, err
			}
			reqs[i] = []req{{http.MethodPost, "/v1/sessions/" + ev.spec.name + "/answers", body}}
		case ev.op.kind == opNext:
			reqs[i] = []req{{http.MethodGet, fmt.Sprintf("/v1/sessions/%s/next?k=%d", ev.spec.name, ev.op.k), nil}}
		default:
			body, err := json.Marshal(server.SubmitRequest{Validations: []server.ValidationJSON{{Object: ev.op.object, Label: ev.op.label}}})
			if err != nil {
				return depthRun{}, err
			}
			reqs[i] = []req{
				{http.MethodGet, "/v1/sessions/" + ev.spec.name + "/next?k=1", nil},
				{http.MethodPost, "/v1/sessions/" + ev.spec.name + "/validations", body},
			}
		}
	}

	settleMemory()
	run := depthRun{ops: make([]timing, len(script))}
	for _, r := range creates {
		t0 := time.Now()
		if err := call(r); err != nil {
			return depthRun{}, err
		}
		if spans {
			run.creates = append(run.creates, time.Since(t0))
		}
	}
	start := time.Now()
	for i, rs := range reqs {
		for j, r := range rs {
			t0 := time.Now()
			if err := call(r); err != nil {
				return depthRun{}, err
			}
			if !spans {
				continue
			}
			if j == 0 {
				run.ops[i].main = time.Since(t0)
			} else {
				run.ops[i].submit = time.Since(t0)
			}
		}
	}
	run.opsWall = time.Since(start)
	return run, nil
}

// replayManager is depth 1: the same operations through server.Manager.
func replayManager(dir string, budget int64, traced []*sessionSpec, script []event) (depthRun, error) {
	m, err := newManager(dir, budget)
	if err != nil {
		return depthRun{}, err
	}
	ctx := context.Background()
	settleMemory()
	run := depthRun{ops: make([]timing, len(script)), resident: map[int][]string{}}
	for _, s := range traced {
		answers, err := answerSet(s.create)
		if err != nil {
			return depthRun{}, err
		}
		opts := libraryOptions(s.create.Options)
		t0 := time.Now()
		if err := m.Create(ctx, s.name, answers, opts...); err != nil {
			return depthRun{}, err
		}
		run.creates = append(run.creates, time.Since(t0))
	}
	start := time.Now()
	for i, ev := range script {
		var answers []crowdval.Answer
		if ev.spec != nil && ev.op.kind == opIngest {
			answers = toAnswers(ev.op.answers)
		}
		if ev.spec == nil {
			for _, info := range m.Sessions() {
				if !info.Parked {
					run.resident[i] = append(run.resident[i], info.Name)
				}
			}
		}
		t0 := time.Now()
		switch {
		case ev.spec == nil:
			_, err = m.GlobalNext(ctx, ev.k, false)
		case ev.op.kind == opIngest:
			_, err = m.AddAnswers(ctx, ev.spec.name, answers)
		case ev.op.kind == opNext:
			_, err = m.NextObjects(ctx, ev.spec.name, ev.op.k)
		default:
			if _, err = m.NextObjects(ctx, ev.spec.name, 1); err == nil {
				run.ops[i].main = time.Since(t0)
				t0 = time.Now()
				_, err = m.Submit(ctx, ev.spec.name, ev.op.object, crowdval.Label(ev.op.label))
				run.ops[i].submit = time.Since(t0)
				continue
			}
		}
		if err != nil {
			return depthRun{}, err
		}
		run.ops[i].main = time.Since(t0)
	}
	run.opsWall = time.Since(start)
	return run, nil
}

// layerSpans collects the per-call durations (ms) of the layer functions and
// the core's next-question split into memo hits and rescans.
type layerSpans struct {
	em, index, rank, candidates, detect []float64
	walAppend, walSync, checkpoint      []float64
	snapshotBytes, encode, decode       []float64
	nextRescan, nextMemo                []float64
}

// replaySessions is depth 2, bare library sessions. With lay non-nil it also
// runs the layer functions before each op on the state the op starts from;
// layer calls work on copies and are timed apart from the session op.
//
// A global next ranks the sessions the manager depth had resident for the
// same event (resident), since the manager skips parked sessions.
func replaySessions(dir string, traced []*sessionSpec, script []event, resident map[int][]string, lay *layerSpans) (depthRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return depthRun{}, err
	}
	ctx := context.Background()
	run := depthRun{ops: make([]timing, len(script))}
	sessions := make(map[*sessionSpec]*crowdval.Session, len(traced))
	logs := make(map[*sessionSpec]*walSpan, len(traced))
	// memoK is the largest ranking size served since the session's last
	// mutation (0 = none): a request for no more is a memoization hit.
	memoK := make(map[*sessionSpec]int, len(traced))
	byName := make(map[string]*sessionSpec, len(traced))
	settleMemory()
	for _, s := range traced {
		byName[s.name] = s
		answers, err := answerSet(s.create)
		if err != nil {
			return depthRun{}, err
		}
		t0 := time.Now()
		sess, err := crowdval.NewSession(answers, libraryOptions(s.create.Options)...)
		if err != nil {
			return depthRun{}, err
		}
		run.creates = append(run.creates, time.Since(t0))
		sessions[s] = sess
		w, err := openWALSpan(filepath.Join(dir, s.name+".wal"))
		if err != nil {
			return depthRun{}, err
		}
		defer w.close()
		logs[s] = w
	}
	next := func(s *sessionSpec, k int) (time.Duration, error) {
		sess := sessions[s]
		if err := layerRank(ctx, sess, s.create.Options, k, lay); err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err := sess.NextObjectsContext(ctx, k)
		d := time.Since(t0)
		hit := k <= memoK[s]
		memoK[s] = max(memoK[s], k)
		if lay != nil && hit {
			lay.nextMemo = append(lay.nextMemo, ms(d))
		} else if lay != nil {
			lay.nextRescan = append(lay.nextRescan, ms(d))
		}
		return d, err
	}
	start := time.Now()
	for i, ev := range script {
		s := ev.spec
		switch {
		case s == nil:
			t0 := time.Now()
			var cands []crowdval.GlobalNextCandidate
			for _, name := range resident[i] {
				t := byName[name]
				ranked, err := sessions[t].NextObjectsContext(ctx, ev.k)
				if err != nil {
					return depthRun{}, err
				}
				tracker, budgeted := sessions[t].CostBudget()
				for _, so := range ranked {
					gpc := so.Score / crowdval.DefaultExpertCrowdCostRatio
					if budgeted {
						gpc = tracker.GainPerCost(so.Score)
					}
					cands = append(cands, crowdval.GlobalNextCandidate{Session: t.name, Object: so.Object, Gain: so.Score, GainPerCost: gpc})
				}
				memoK[t] = max(memoK[t], ev.k)
			}
			crowdval.MergeGlobalNext(cands, ev.k)
			run.ops[i].main = time.Since(t0)
		case ev.op.kind == opIngest:
			sess := sessions[s]
			if err := layerIngest(ctx, sess, ev.op.answers, logs[s], lay); err != nil {
				return depthRun{}, err
			}
			answers := toAnswers(ev.op.answers)
			t0 := time.Now()
			if err := sess.AddAnswers(ctx, answers); err != nil {
				return depthRun{}, err
			}
			run.ops[i].main = time.Since(t0)
			memoK[s] = 0
		case ev.op.kind == opNext:
			d, err := next(s, ev.op.k)
			if err != nil {
				return depthRun{}, err
			}
			run.ops[i].main = d
		default:
			d, err := next(s, 1)
			if err != nil {
				return depthRun{}, err
			}
			run.ops[i].main = d
			sess := sessions[s]
			if err := layerSubmit(ctx, sess, ev.op.object, ev.op.label, logs[s], lay); err != nil {
				return depthRun{}, err
			}
			t0 := time.Now()
			if _, err := sess.SubmitValidationContext(ctx, ev.op.object, crowdval.Label(ev.op.label)); err != nil {
				return depthRun{}, err
			}
			run.ops[i].submit = time.Since(t0)
			memoK[s] = 0
		}
	}
	run.opsWall = time.Since(start)
	for _, s := range traced {
		if err := layerSnapshot(sessions[s], logs[s], lay); err != nil {
			return depthRun{}, err
		}
	}
	return run, nil
}

// engineAggregator is the aggregator a session's engine builds for itself.
func engineAggregator(opts server.SessionConfig) *aggregation.IncrementalEM {
	return &aggregation.IncrementalEM{Delta: aggregation.DeltaConfig{Enabled: opts.Delta}}
}

// layerIngest times the aggregation and WAL work of folding a batch into
// the session's current state: the delta (or full warm) EM over a copy of
// the answers with the batch added, and the log append.
func layerIngest(ctx context.Context, sess *crowdval.Session, batch []server.AnswerJSON, w *walSpan, lay *layerSpans) error {
	if lay == nil {
		return nil
	}
	prev := sess.ProbabilisticResult()
	answers := prev.Answers.Clone()
	objects, workers := map[int]bool{}, map[int]bool{}
	rec := wal.Record{Type: wal.RecAddAnswers}
	for _, a := range batch {
		if err := answers.SetAnswer(a.Object, a.Worker, crowdval.Label(a.Label)); err != nil {
			return err
		}
		objects[a.Object], workers[a.Worker] = true, true
		rec.Answers = append(rec.Answers, wal.Answer{Object: a.Object, Worker: a.Worker, Label: a.Label})
	}
	agg := engineAggregator(server.SessionConfig{Delta: sess.DeltaIngestEnabled()})
	delta := &aggregation.Delta{Objects: sortedKeys(objects), Workers: sortedKeys(workers)}
	t0 := time.Now()
	if _, err := agg.AggregateDeltaContext(ctx, answers, sess.Validation(), prev, delta); err != nil {
		return err
	}
	lay.em = append(lay.em, ms(time.Since(t0)))
	return w.append(rec, lay)
}

// layerSubmit times the aggregation, spam detection and WAL work of one
// validation on the session's current state.
func layerSubmit(ctx context.Context, sess *crowdval.Session, object, label int, w *walSpan, lay *layerSpans) error {
	if lay == nil {
		return nil
	}
	prev := sess.ProbabilisticResult()
	validation := sess.Validation().Clone()
	validation.Set(object, crowdval.Label(label))
	agg := engineAggregator(server.SessionConfig{Delta: sess.DeltaIngestEnabled()})
	t0 := time.Now()
	res, err := agg.AggregateDeltaContext(ctx, prev.Answers, validation, prev, &aggregation.Delta{Objects: []int{object}})
	if err != nil {
		return err
	}
	lay.em = append(lay.em, ms(time.Since(t0)))
	detector := &spamdetect.Detector{}
	t0 = time.Now()
	if _, err := detector.DetectContext(ctx, prev.Answers, validation, res.ProbSet.Assignment.Priors()); err != nil {
		return err
	}
	lay.detect = append(lay.detect, ms(time.Since(t0)))
	return w.append(wal.Record{Type: wal.RecSubmit, Validations: []wal.Validation{{Object: object, Label: label}}}, lay)
}

// layerRank times the guidance work of a next question on the session's
// current state: the score-index build and the uncertainty strategy's top-k
// ranking over it.
func layerRank(ctx context.Context, sess *crowdval.Session, opts server.SessionConfig, k int, lay *layerSpans) error {
	if lay == nil {
		return nil
	}
	p := sess.ProbabilisticResult()
	agg := engineAggregator(opts)
	t0 := time.Now()
	ix := aggregation.NewScoreIndex(p.Answers, p, aggregation.EMConfigOf(agg))
	if opts.DeltaScoring {
		ix.EnsureHypoTables()
	}
	lay.index = append(lay.index, ms(time.Since(t0)))
	strategy := &guidance.UncertaintyDriven{CandidateLimit: opts.CandidateLimit}
	gctx := &guidance.Context{
		Ctx: ctx, Answers: p.Answers, ProbSet: p, Aggregator: agg, Index: ix,
		DeltaScore: opts.DeltaScoring, BlockedRows: opts.DeltaScoring,
	}
	t0 = time.Now()
	if _, err := strategy.SelectK(gctx, k); err != nil {
		return err
	}
	lay.rank = append(lay.rank, ms(time.Since(t0)))
	candidates := len(sess.Validation().UnvalidatedObjects())
	if opts.CandidateLimit > 0 {
		candidates = min(candidates, opts.CandidateLimit)
	}
	lay.candidates = append(lay.candidates, float64(candidates))
	return nil
}

// layerSnapshot times the snapshot codec on a session's final state and a
// WAL checkpoint of it.
func layerSnapshot(sess *crowdval.Session, w *walSpan, lay *layerSpans) error {
	if lay == nil {
		return nil
	}
	t0 := time.Now()
	snap, err := sess.Snapshot()
	if err != nil {
		return err
	}
	lay.encode = append(lay.encode, ms(time.Since(t0)))
	lay.snapshotBytes = append(lay.snapshotBytes, float64(len(snap)))
	t0 = time.Now()
	if _, err := crowdval.ResumeSession(snap); err != nil {
		return err
	}
	lay.decode = append(lay.decode, ms(time.Since(t0)))
	return w.checkpoint(snap, lay)
}

// walSpan is a WAL of the traced records: appends are buffered (no fsync)
// and timed; an fsync is timed every wal.DefaultSyncInterval records, the
// interval policy's cadence, and at the end.
type walSpan struct {
	path    string
	f       *os.File
	a       *wal.Appender
	pending int
}

func openWALSpan(path string) (*walSpan, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	a, err := wal.NewAppender(f, 0, wal.SyncPolicy{Mode: wal.SyncOff})
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walSpan{path: path, f: f, a: a}, nil
}

func (w *walSpan) append(rec wal.Record, lay *layerSpans) error {
	t0 := time.Now()
	if _, err := w.a.Append(rec); err != nil {
		return err
	}
	lay.walAppend = append(lay.walAppend, ms(time.Since(t0)))
	w.pending++
	if w.pending >= wal.DefaultSyncInterval {
		return w.sync(lay)
	}
	return nil
}

func (w *walSpan) sync(lay *layerSpans) error {
	t0 := time.Now()
	if err := w.a.Sync(); err != nil {
		return err
	}
	lay.walSync = append(lay.walSync, ms(time.Since(t0)))
	w.pending = 0
	return nil
}

// checkpoint syncs the outstanding records, then writes and fsyncs a
// checkpoint of snap beside the log, timing the latter.
func (w *walSpan) checkpoint(snap []byte, lay *layerSpans) error {
	if w.pending > 0 {
		if err := w.sync(lay); err != nil {
			return err
		}
	}
	f, err := os.Create(w.path + ".ckpt")
	if err != nil {
		return err
	}
	defer f.Close()
	t0 := time.Now()
	if err := wal.WriteCheckpoint(f, w.a.LSN(), snap); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	lay.checkpoint = append(lay.checkpoint, ms(time.Since(t0)))
	return f.Close()
}

func (w *walSpan) close() { w.f.Close() }

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
