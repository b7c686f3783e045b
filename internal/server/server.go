package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"crowdval"
	"crowdval/internal/cverr"
)

// DefaultMaxBodyBytes bounds request bodies (dense matrices and ingestion
// batches are the large ones).
const DefaultMaxBodyBytes = 64 << 20

// MaxNextK caps the ?k= of the next-object endpoint: a ranking is scored in
// one pass, but serializing tens of thousands of candidates per request is a
// foot-gun for clients that meant "a page of suggestions".
const MaxNextK = 1000

// Server is the HTTP facade over a Manager. It speaks JSON and serves:
//
//	POST   /v1/sessions                      create a session
//	GET    /v1/sessions                      list sessions
//	POST   /v1/sessions/{name}/resume        create a session from a snapshot body
//	GET    /v1/sessions/{name}/snapshot      download the session snapshot
//	POST   /v1/sessions/{name}/answers       ingest crowd answers (AddAnswers)
//	GET    /v1/sessions/{name}/next          next-object guidance (?k= for a top-k ranking)
//	GET    /v1/next                          global cross-session guidance (?k=, ?parked=1 to scan parked sessions too)
//	POST   /v1/sessions/{name}/budget        install or replace the session's monetary budget
//	POST   /v1/sessions/{name}/validations   submit one validation or a batch
//	GET    /v1/sessions/{name}/result        current estimates (?probabilities=1)
//	DELETE /v1/sessions/{name}               delete a session
//	GET    /v1/metrics                       manager statistics (JSON)
//	GET    /metrics                          manager statistics (Prometheus text)
//	GET    /healthz                          liveness probe (always 200 while serving)
//	GET    /readyz                           readiness probe (200 once recovery finished and not draining)
//
// Every handler honors the request context: a client that disconnects or a
// ?timeout= that expires cancels the in-flight session operation, which rolls
// back exactly as the library guarantees (the session stays consistent and
// the operation can be retried). Errors carry the sentinel name from the
// crowdval error taxonomy in the "code" field.
type Server struct {
	manager *Manager
	mux     *http.ServeMux
	// MaxBodyBytes caps request body sizes; DefaultMaxBodyBytes when zero.
	MaxBodyBytes int64

	// ready flips to true once recovery has finished (SetReady); draining
	// flips to true when a drain-on-shutdown walk starts (SetDraining). Both
	// feed /readyz, which is how the router and orchestrators keep traffic
	// away from a node that cannot own sessions yet (or anymore).
	ready    atomic.Bool
	draining atomic.Bool
	// ownerCheck gates session-owning operations when the server is part of a
	// cluster fabric: non-nil, it is consulted with the session name and its
	// error (a *NotOwnerError, HTTP 421 with the owner's address) rejects the
	// request. nil means standalone — every session is local.
	ownerCheck func(name string) error
	// clusterStats, when non-nil, contributes the cluster fabric's counters
	// to both metrics endpoints. It must be cheap and lock-free (atomics), as
	// the scrape path guarantees.
	clusterStats func() ClusterStats
}

// New builds the HTTP facade for a manager.
func New(m *Manager) *Server {
	s := &Server{manager: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /v1/sessions", handle(s.handleCreate))
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("POST /v1/sessions/{name}/resume", handle(s.handleResume))
	s.mux.HandleFunc("GET /v1/sessions/{name}/snapshot", handle(s.handleSnapshot))
	s.mux.HandleFunc("POST /v1/sessions/{name}/answers", handle(s.handleIngest))
	s.mux.HandleFunc("GET /v1/sessions/{name}/next", handle(s.handleNext))
	s.mux.HandleFunc("GET /v1/next", handle(s.handleGlobalNext))
	s.mux.HandleFunc("POST /v1/sessions/{name}/budget", handle(s.handleSetBudget))
	s.mux.HandleFunc("POST /v1/sessions/{name}/validations", handle(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/sessions/{name}/result", handle(s.handleResult))
	s.mux.HandleFunc("DELETE /v1/sessions/{name}", handle(s.handleDelete))
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handlePrometheus)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SetReady records that recovery has finished and the node may own traffic;
// /readyz reports 200 from here on (unless draining).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// SetDraining marks the node as handing its sessions off before shutdown;
// /readyz reports 503 so routers stop sending it new work.
func (s *Server) SetDraining(draining bool) { s.draining.Store(draining) }

// SetOwnerCheck installs the cluster fabric's ownership gate; call it before
// the server starts handling requests.
func (s *Server) SetOwnerCheck(check func(name string) error) { s.ownerCheck = check }

// SetClusterStats installs the cluster fabric's counter source for the
// metrics endpoints; call it before the server starts handling requests.
func (s *Server) SetClusterStats(stats func() ClusterStats) { s.clusterStats = stats }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// ReadyResponse is the body of GET /readyz.
type ReadyResponse struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	// Health is the WAL durability state of the managed sessions: "healthy",
	// "degraded" (some sessions read-only while the probe loop heals them) or
	// "failstop" (some sessions need a restart to accept mutations again).
	Health string `json:"health"`
	// DegradedSessions / FailStopSessions count the sessions in each failure
	// state.
	DegradedSessions int64 `json:"degradedSessions"`
	FailStopSessions int64 `json:"failStopSessions"`
}

// handleReadyz reports readiness. A merely degraded node stays 200: reads
// still serve and the probe loop heals mutations back without a restart, so
// pulling the node out of rotation would turn a partial outage into a full
// one. The body carries the health detail for operators and orchestrators
// that want to alert or reschedule on it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.manager.Health()
	resp := ReadyResponse{
		Ready:            s.ready.Load(),
		Draining:         s.draining.Load(),
		Health:           h.State,
		DegradedSessions: h.DegradedSessions,
		FailStopSessions: h.FailStopSessions,
	}
	status := http.StatusOK
	if !resp.Ready || resp.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// checkOwner applies the cluster ownership gate to a session-owning request.
func (s *Server) checkOwner(name string) error {
	if s.ownerCheck == nil {
		return nil
	}
	return s.ownerCheck(name)
}

func (s *Server) maxBody() int64 {
	if s.MaxBodyBytes > 0 {
		return s.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

// handler is the shape of every public endpoint that runs a session
// operation: it writes its own success response and returns its refusal.
type handler func(ctx context.Context, w http.ResponseWriter, r *http.Request) error

// handle adapts a handler to net/http: it derives the operation context —
// the request's own context (cancelled when the client goes away),
// optionally bounded by a ?timeout= duration — and writes any refusal with
// WriteError.
func handle(h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel, err := requestContext(r)
		if err == nil {
			defer cancel()
			err = h(ctx, w, r)
		}
		if err != nil {
			WriteError(w, err)
		}
	}
}

func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return ctx, func() {}, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return nil, nil, fmt.Errorf("invalid timeout %s: %w", raw, cverr.ErrBadRequest)
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, cancel, nil
}

func (s *Server) handleCreate(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req CreateSessionRequest
	if err := decodeJSON(r, s.maxBody(), &req); err != nil {
		return err
	}
	if err := s.checkOwner(req.Name); err != nil {
		return err
	}
	answers, err := req.answerSet()
	if err != nil {
		return err
	}
	if err := s.manager.Create(ctx, req.Name, answers, req.Options.options()...); err != nil {
		return err
	}
	writeJSON(w, http.StatusCreated, SessionSummary{
		Name:    req.Name,
		Objects: answers.NumObjects(),
		Workers: answers.NumWorkers(),
		Labels:  answers.NumLabels(),
		Answers: answers.AnswerCount(),
	})
	return nil
}

func (s *Server) handleResume(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	if err := s.checkOwner(name); err != nil {
		return err
	}
	snap, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, s.maxBody()))
	if err != nil {
		return fmt.Errorf("reading snapshot body: %w: %w", err, cverr.ErrBadRequest)
	}
	if err := s.manager.CreateFromSnapshot(ctx, name, snap); err != nil {
		return err
	}
	var summary SessionSummary
	err = s.manager.View(ctx, name, func(sess *crowdval.Session) error {
		summary = SessionSummary{
			Name:    name,
			Objects: sess.NumObjects(),
			Workers: sess.NumWorkers(),
			Labels:  sess.NumLabels(),
			Answers: sess.AnswerCount(),
		}
		return nil
	})
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusCreated, summary)
	return nil
}

func (s *Server) handleSnapshot(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	// The manager materializes the bytes (from the resident session or, for a
	// parked one, straight from its park file — no resume) before anything is
	// written, so failures still produce a JSON error response and a slow
	// download cannot stall the session's writers.
	data, err := s.manager.Snapshot(ctx, r.PathValue("name"))
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
	return nil
}

func (s *Server) handleIngest(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req IngestRequest
	if err := decodeJSON(r, s.maxBody(), &req); err != nil {
		return err
	}
	name := r.PathValue("name")
	if err := s.checkOwner(name); err != nil {
		return err
	}
	answers := make([]crowdval.Answer, len(req.Answers))
	for i, a := range req.Answers {
		answers[i] = crowdval.Answer{Object: a.Object, Worker: a.Worker, Label: crowdval.Label(a.Label)}
	}
	total, err := s.manager.AddAnswers(ctx, name, answers)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, IngestResponse{Ingested: len(answers), AnswerCount: total})
	return nil
}

func (s *Server) handleNext(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	k, err := ParseK(r, 1)
	if err != nil {
		return err
	}
	// Next-object guidance mutates strategy state (the hybrid roulette draw),
	// so like the writers it is owner-only; result and snapshot reads may be
	// served from any node holding a copy.
	if err := s.checkOwner(r.PathValue("name")); err != nil {
		return err
	}
	ranked, err := s.manager.NextObjects(ctx, r.PathValue("name"), k)
	if err != nil {
		return err
	}
	resp := NextResponse{Object: ranked[0].Object, Ranking: make([]ScoredObjectJSON, len(ranked))}
	for i, c := range ranked {
		resp.Ranking[i] = ScoredObjectJSON{Object: c.Object, Score: c.Score}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// ParseK extracts and bounds the ?k= ranking size of a next-object request:
// def when absent, otherwise an integer in 1..MaxNextK; any other value is an
// ErrBadRequest. The fabric router applies the same rule before it fans a
// request out.
func ParseK(r *http.Request, def int) (int, error) {
	raw := r.URL.Query().Get("k")
	if raw == "" {
		return def, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 1 || k > MaxNextK {
		return 0, fmt.Errorf("invalid k %q (must be an integer in 1..%d): %w", raw, MaxNextK, cverr.ErrBadRequest)
	}
	return k, nil
}

// handleGlobalNext serves the marketplace read: the global top-k next
// validations across every session of this node, ranked by gain per unit
// cost (see Manager.GlobalNext). It is deliberately not owner-gated — the
// answer describes only the sessions this node holds, and the router
// fan-outs it across the fabric to build the cluster-wide ranking.
func (s *Server) handleGlobalNext(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	k, err := ParseK(r, 1)
	if err != nil {
		return err
	}
	includeParked := r.URL.Query().Get("parked") == "1"
	cands, err := s.manager.GlobalNext(ctx, k, includeParked)
	if err != nil {
		return err
	}
	resp := GlobalNextResponse{Candidates: make([]GlobalCandidateJSON, len(cands))}
	for i, c := range cands {
		resp.Candidates[i] = GlobalCandidateJSON{
			Session: c.Session, Object: c.Object, Gain: c.Gain, GainPerCost: c.GainPerCost,
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleSetBudget(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req BudgetRequest
	if err := decodeJSON(r, s.maxBody(), &req); err != nil {
		return err
	}
	if req.Budget <= 0 {
		return fmt.Errorf("budget must be positive: %w", cverr.ErrBadRequest)
	}
	name := r.PathValue("name")
	if err := s.checkOwner(name); err != nil {
		return err
	}
	if err := s.manager.SetBudget(ctx, name, req.tracker()); err != nil {
		return err
	}
	var resp BudgetResponse
	err := s.manager.View(ctx, name, func(sess *crowdval.Session) error {
		t, ok := sess.CostBudget()
		if !ok {
			return fmt.Errorf("server: session %q lost its budget after SetBudget", name)
		}
		theta := t.Theta
		if theta <= 0 {
			theta = crowdval.DefaultExpertCrowdCostRatio
		}
		resp = BudgetResponse{
			Theta:               theta,
			Budget:              t.Budget,
			Spent:               t.Spent,
			Remaining:           t.Remaining(),
			FeasibleValidations: t.FeasibleValidations(),
			Exhausted:           t.Exhausted(),
		}
		return nil
	})
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleSubmit(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req SubmitRequest
	if err := decodeJSON(r, s.maxBody(), &req); err != nil {
		return err
	}
	if len(req.Validations) == 0 {
		return fmt.Errorf("no validations in request: %w", cverr.ErrBadRequest)
	}
	name := r.PathValue("name")
	if err := s.checkOwner(name); err != nil {
		return err
	}
	var infos []crowdval.StepInfo
	if len(req.Validations) == 1 {
		v := req.Validations[0]
		info, err := s.manager.Submit(ctx, name, v.Object, crowdval.Label(v.Label))
		if err != nil {
			return err
		}
		infos = []crowdval.StepInfo{info}
	} else {
		inputs := make([]crowdval.ValidationInput, len(req.Validations))
		for i, v := range req.Validations {
			inputs[i] = crowdval.ValidationInput{Object: v.Object, Label: crowdval.Label(v.Label)}
		}
		var err error
		infos, err = s.manager.SubmitBatch(ctx, name, inputs)
		if err != nil {
			return err
		}
	}
	resp := SubmitResponse{Steps: make([]StepInfoJSON, len(infos))}
	for i, info := range infos {
		resp.Steps[i] = stepInfoJSON(info)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleResult(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	withProbs := r.URL.Query().Get("probabilities") == "1"
	var resp ResultResponse
	err := s.manager.View(ctx, r.PathValue("name"), func(sess *crowdval.Session) error {
		assignment := sess.Result()
		resp.Labels = make([]int, len(assignment))
		for o, l := range assignment {
			resp.Labels[o] = int(l)
		}
		validation := sess.Validation()
		for o := 0; o < sess.NumObjects(); o++ {
			if validation.Validated(o) {
				resp.Validated = append(resp.Validated, o)
			}
		}
		if withProbs {
			probSet := sess.ProbabilisticResult()
			resp.Probabilities = make([][]float64, sess.NumObjects())
			for o := range resp.Probabilities {
				resp.Probabilities[o] = probSet.Assignment.Row(o)
			}
		}
		resp.Uncertainty = sess.Uncertainty()
		resp.EffortSpent = sess.EffortSpent()
		resp.EffortRatio = sess.EffortRatio()
		resp.Done = sess.Done()
		resp.QuarantinedWorkers = sess.QuarantinedWorkers()
		resp.Objects = sess.NumObjects()
		resp.Workers = sess.NumWorkers()
		resp.NumLabels = sess.NumLabels()
		resp.AnswerCount = sess.AnswerCount()
		return nil
	})
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleDelete ignores the operation context — deletion is not cancellable —
// but goes through handle like every session endpoint, so a malformed
// ?timeout= is refused here too.
func (s *Server) handleDelete(_ context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	if err := s.checkOwner(name); err != nil {
		return err
	}
	if err := s.manager.Delete(name); err != nil {
		return err
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.Sessions())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{Stats: s.manager.Stats()}
	if s.clusterStats != nil {
		c := s.clusterStats()
		resp.Cluster = &c
	}
	writeJSON(w, http.StatusOK, resp)
}
