package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"crowdval"
)

// testCrowd generates a small crowd with spammers so the detection and
// quarantine machinery fires during guided validation.
func testCrowd(t testing.TB, objects, workers int, seed int64) *crowdval.Dataset {
	t.Helper()
	d, err := crowdval.GenerateCrowd(crowdval.CrowdConfig{
		NumObjects: objects, NumWorkers: workers, NumLabels: 2,
		Mix:            crowdval.WorkerMix{Normal: 0.6, RandomSpammer: 0.2, UniformSpammer: 0.2},
		NormalAccuracy: 0.85,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// matrixOf converts an answer set to the dense wire form.
func matrixOf(answers *crowdval.AnswerSet) [][]int {
	matrix := make([][]int, answers.NumObjects())
	for o := range matrix {
		row := make([]int, answers.NumWorkers())
		for w := range row {
			row[w] = int(answers.Answer(o, w))
		}
		matrix[o] = row
	}
	return matrix
}

// client is a minimal JSON test client against the server under test.
type client struct {
	t    testing.TB
	base string
	http *http.Client
}

func newTestServer(t testing.TB, budget int64) (*client, *Manager) {
	t.Helper()
	manager, err := NewManager(ManagerConfig{MemoryBudget: budget, ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(manager))
	t.Cleanup(srv.Close)
	return &client{t: t, base: srv.URL, http: srv.Client()}, manager
}

// do issues a request and decodes the JSON response into out (ignored when
// nil). It returns the HTTP status and, for non-2xx, the error body.
func (c *client) do(method, path string, body, out any) (int, *ErrorResponse) {
	c.t.Helper()
	var reqBody io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		reqBody = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, reqBody)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		var errResp ErrorResponse
		_ = json.Unmarshal(raw, &errResp)
		return resp.StatusCode, &errResp
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, nil
}

// must asserts a 2xx status.
func (c *client) must(method, path string, body, out any) {
	c.t.Helper()
	if status, errResp := c.do(method, path, body, out); errResp != nil {
		c.t.Fatalf("%s %s: status %d: %+v", method, path, status, errResp)
	}
}

func (c *client) snapshotBytes(name string) []byte {
	c.t.Helper()
	resp, err := c.http.Get(c.base + "/v1/sessions/" + name + "/snapshot")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("GET snapshot %s: status %d: %s", name, resp.StatusCode, raw)
	}
	return raw
}

func createOptions(seed int64) SessionConfig {
	return SessionConfig{
		Strategy:       "hybrid",
		Budget:         30,
		CandidateLimit: 4,
		Seed:           seed,
	}
}

func (cfg SessionConfig) libraryOptions() []crowdval.Option { return cfg.options() }

func TestServerEndToEnd(t *testing.T) {
	c, _ := newTestServer(t, 0)
	d := testCrowd(t, 20, 8, 3)

	var summary SessionSummary
	c.must("POST", "/v1/sessions", CreateSessionRequest{
		Name: "demo", Matrix: matrixOf(d.Answers), NumLabels: 2, Options: createOptions(7),
	}, &summary)
	if summary.Objects != 20 || summary.Workers != 8 || summary.Answers != d.Answers.AnswerCount() {
		t.Fatalf("create summary %+v", summary)
	}

	// Duplicate name conflicts.
	status, errResp := c.do("POST", "/v1/sessions", CreateSessionRequest{
		Name: "demo", Matrix: matrixOf(d.Answers), NumLabels: 2,
	}, nil)
	if status != http.StatusConflict || errResp.Code != "ErrSessionExists" {
		t.Fatalf("duplicate create: status %d, %+v", status, errResp)
	}

	// Guided step: next object, submit the truth label.
	var next NextResponse
	c.must("GET", "/v1/sessions/demo/next", nil, &next)
	var submit SubmitResponse
	c.must("POST", "/v1/sessions/demo/validations", SubmitRequest{
		Validations: []ValidationJSON{{Object: next.Object, Label: int(d.Truth[next.Object])}},
	}, &submit)
	if len(submit.Steps) != 1 || submit.Steps[0].Object != next.Object {
		t.Fatalf("submit steps %+v", submit.Steps)
	}

	// Resubmitting the same object conflicts and reports the sentinel.
	status, errResp = c.do("POST", "/v1/sessions/demo/validations", SubmitRequest{
		Validations: []ValidationJSON{{Object: next.Object, Label: int(d.Truth[next.Object])}},
	}, nil)
	if status != http.StatusConflict || errResp.Code != "ErrAlreadyValidated" {
		t.Fatalf("duplicate validation: status %d, %+v", status, errResp)
	}

	// Ingestion grows the answer count.
	var ingest IngestResponse
	c.must("POST", "/v1/sessions/demo/answers", IngestRequest{
		Answers: []AnswerJSON{{Object: 0, Worker: 0, Label: int(d.Truth[0])}},
	}, &ingest)
	if ingest.Ingested != 1 {
		t.Fatalf("ingest response %+v", ingest)
	}

	// Result reflects the validation and, on request, the probabilities.
	var result ResultResponse
	c.must("GET", "/v1/sessions/demo/result?probabilities=1", nil, &result)
	if len(result.Labels) != 20 || result.EffortSpent != 1 || len(result.Probabilities) != 20 {
		t.Fatalf("result %+v", result)
	}
	if len(result.Validated) != 1 || result.Validated[0] != next.Object {
		t.Fatalf("validated list %v", result.Validated)
	}
	if result.Labels[next.Object] != int(d.Truth[next.Object]) {
		t.Fatal("validated object does not carry the expert label")
	}

	// Snapshot → resume under a new name; the clone continues identically.
	snap := c.snapshotBytes("demo")
	resp, err := c.http.Post(c.base+"/v1/sessions/clone/resume", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("resume status %d", resp.StatusCode)
	}
	var cloneNext, demoNext NextResponse
	c.must("GET", "/v1/sessions/clone/next", nil, &cloneNext)
	c.must("GET", "/v1/sessions/demo/next", nil, &demoNext)
	if cloneNext.Object != demoNext.Object {
		t.Fatalf("resumed clone diverged: next %d != %d", cloneNext.Object, demoNext.Object)
	}

	// Malformed snapshot body is a 400 with the sentinel name.
	resp, err = c.http.Post(c.base+"/v1/sessions/junk/resume", "application/octet-stream", strings.NewReader("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	var errBody ErrorResponse
	json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errBody.Code != "ErrBadSnapshot" {
		t.Fatalf("junk resume: status %d, %+v", resp.StatusCode, errBody)
	}

	// Listing and metrics.
	var infos []SessionInfo
	c.must("GET", "/v1/sessions", nil, &infos)
	if len(infos) != 2 {
		t.Fatalf("sessions list %+v", infos)
	}
	var stats Stats
	c.must("GET", "/v1/metrics", nil, &stats)
	if stats.Sessions != 2 || stats.IngestedAnswers != 1 || stats.SubmittedValidations != 1 || stats.EMIterations == 0 {
		t.Fatalf("stats %+v", stats)
	}

	// Delete; the session is gone.
	c.must("DELETE", "/v1/sessions/clone", nil, nil)
	status, errResp = c.do("GET", "/v1/sessions/clone/result", nil, nil)
	if status != http.StatusNotFound || errResp.Code != "ErrSessionNotFound" {
		t.Fatalf("deleted session: status %d, %+v", status, errResp)
	}

	// Unknown sessions 404 with the sentinel name.
	status, errResp = c.do("GET", "/v1/sessions/nope/next", nil, nil)
	if status != http.StatusNotFound || errResp.Code != "ErrSessionNotFound" {
		t.Fatalf("unknown session: status %d, %+v", status, errResp)
	}

	// Invalid names are a client error.
	status, _ = c.do("POST", "/v1/sessions", CreateSessionRequest{
		Name: "../escape", Matrix: matrixOf(d.Answers), NumLabels: 2,
	}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("bad name: status %d, want 400", status)
	}

	// The retired session options are unknown fields: a 400 that names them.
	for field, value := range map[string]any{"parallelScoring": true, "deltaMaxDirtyFraction": 0.5} {
		status, errResp = c.do("POST", "/v1/sessions", map[string]any{
			"name": "retired", "numLabels": 2, "matrix": matrixOf(d.Answers),
			"options": map[string]any{field: value},
		}, nil)
		if status != http.StatusBadRequest || !strings.Contains(errResp.Error, `unknown field "`+field+`"`) {
			t.Fatalf("option %s: status %d, %+v", field, status, errResp)
		}
	}

	// Snapshot of an unknown session is a JSON 404, not an empty 200.
	resp, err = c.http.Get(c.base + "/v1/sessions/ghost/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	errBody = ErrorResponse{}
	json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || errBody.Code != "ErrSessionNotFound" {
		t.Fatalf("snapshot of unknown session: status %d, %+v", resp.StatusCode, errBody)
	}
}

func TestServerRequestTimeoutRollsBack(t *testing.T) {
	c, _ := newTestServer(t, 0)
	d := testCrowd(t, 30, 10, 5)
	c.must("POST", "/v1/sessions", CreateSessionRequest{
		Name: "slow", Matrix: matrixOf(d.Answers), NumLabels: 2, Options: createOptions(1),
	}, nil)

	var next NextResponse
	c.must("GET", "/v1/sessions/slow/next", nil, &next)

	// A 1ns deadline expires before the submission starts; the server reports
	// a gateway timeout and the session state is untouched.
	status, errResp := c.do("POST", "/v1/sessions/slow/validations?timeout=1ns", SubmitRequest{
		Validations: []ValidationJSON{{Object: next.Object, Label: int(d.Truth[next.Object])}},
	}, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timeout submit: status %d, %+v", status, errResp)
	}
	var result ResultResponse
	c.must("GET", "/v1/sessions/slow/result", nil, &result)
	if result.EffortSpent != 0 || len(result.Validated) != 0 {
		t.Fatalf("cancelled submission left state: %+v", result)
	}
	// The same submission succeeds with a sane deadline.
	c.must("POST", "/v1/sessions/slow/validations?timeout=30s", SubmitRequest{
		Validations: []ValidationJSON{{Object: next.Object, Label: int(d.Truth[next.Object])}},
	}, nil)
}

func TestManagerEvictionParksAndResumes(t *testing.T) {
	manager, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d1 := testCrowd(t, 15, 6, 1)
	d2 := testCrowd(t, 15, 6, 2)
	if err := manager.Create(ctx, "a", d1.Answers, crowdval.WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if err := manager.Create(ctx, "b", d2.Answers, crowdval.WithSeed(2)); err != nil {
		t.Fatal(err)
	}
	// Creating b exceeded the 1-byte budget, so a was parked.
	stats := manager.Stats()
	if stats.Parked == 0 || stats.Evictions == 0 {
		t.Fatalf("nothing parked under a 1-byte budget: %+v", stats)
	}
	if _, err := os.Stat(manager.parkPath("a")); err != nil {
		t.Fatalf("no park file written: %v", err)
	}

	// Touching the parked session resumes it transparently and the operation
	// proceeds as if it never left.
	if _, err := manager.NextObjects(ctx, "a", 1); err != nil {
		t.Fatalf("operation on parked session: %v", err)
	}
	if manager.Stats().Resumes == 0 {
		t.Fatal("resume not counted")
	}

	// A parked session's snapshot is served straight from the park file,
	// without waking the session: the resume counter must not move.
	if _, err := manager.NextObjects(ctx, "b", 1); err != nil {
		t.Fatal(err)
	}
	// After using b (budget still 1), a is parked again.
	resumesBefore := manager.Stats().Resumes
	data, err := manager.Snapshot(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crowdval.ResumeSession(data); err != nil {
		t.Fatalf("parked snapshot does not resume: %v", err)
	}
	if got := manager.Stats().Resumes; got != resumesBefore {
		t.Fatalf("snapshotting a parked session resumed it (%d -> %d resumes)", resumesBefore, got)
	}

	// Delete removes the park file.
	if err := manager.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(manager.parkPath("a")); !os.IsNotExist(err) {
		t.Fatalf("park file survived delete: %v", err)
	}
	if err := manager.Delete("a"); err == nil {
		t.Fatal("double delete accepted")
	}
	// The name is reusable after deletion, and the fresh session is a
	// genuinely new one (its park file was not clobbered by the delete).
	if err := manager.Create(ctx, "a", testCrowd(t, 10, 4, 9).Answers, crowdval.WithSeed(9)); err != nil {
		t.Fatalf("recreate after delete: %v", err)
	}
	if _, err := manager.NextObjects(ctx, "a", 1); err != nil {
		t.Fatalf("recreated session unusable: %v", err)
	}
}

func TestValidateSessionName(t *testing.T) {
	for _, ok := range []string{"a", "session-1", "A.b_c-9", strings.Repeat("x", 128)} {
		if err := ValidateSessionName(ok); err != nil {
			t.Errorf("ValidateSessionName(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", ".", "..", "-lead", "a/b", "a b", "a\x00b", strings.Repeat("x", 129)} {
		if err := ValidateSessionName(bad); err == nil {
			t.Errorf("ValidateSessionName(%q) accepted", bad)
		}
	}
}

// TestConcurrentClientsBitForBit is the serving-layer determinism contract:
// eight concurrent clients (four writers, four readers) drive four sessions
// through the HTTP server while a one-byte memory budget forces constant
// eviction and resumption, and each session's final snapshot must be
// byte-for-byte identical to the same operation sequence replayed serially on
// a plain Session that never went near the server. Run with -race in CI.
func TestConcurrentClientsBitForBit(t *testing.T) {
	const numSessions = 4
	const steps = 12

	c, _ := newTestServer(t, 1) // 1-byte budget: every settle parks the cold sessions

	type sessionPlan struct {
		name    string
		dataset *crowdval.Dataset
		matrix  [][]int
		chunks  [][]crowdval.Answer
		options SessionConfig
	}
	plans := make([]*sessionPlan, numSessions)
	for i := range plans {
		d := testCrowd(t, 24, 8, int64(100+i))
		// Hold back a slice of answers per session for live ingestion: every
		// third (object+worker) pair, split into three chunks.
		baseMatrix := matrixOf(d.Answers)
		var extras []crowdval.Answer
		for o := 0; o < d.Answers.NumObjects(); o++ {
			for w := 0; w < d.Answers.NumWorkers(); w++ {
				if baseMatrix[o][w] >= 0 && (o+w)%3 == 0 {
					extras = append(extras, crowdval.Answer{Object: o, Worker: w, Label: crowdval.Label(baseMatrix[o][w])})
					baseMatrix[o][w] = -1
				}
			}
		}
		chunks := make([][]crowdval.Answer, 3)
		for j, a := range extras {
			chunks[j%3] = append(chunks[j%3], a)
		}
		plans[i] = &sessionPlan{
			name:    fmt.Sprintf("s%d", i),
			dataset: d,
			matrix:  baseMatrix,
			chunks:  chunks,
			options: createOptions(int64(10 + i)),
		}
	}

	// Create the four sessions through the API.
	for _, p := range plans {
		c.must("POST", "/v1/sessions", CreateSessionRequest{
			Name: p.name, Matrix: p.matrix, NumLabels: 2, Options: p.options,
		}, nil)
	}

	// lowestUnvalidated picks the two lowest-numbered unvalidated objects —
	// the rule both the HTTP writer and the serial replay apply, so the
	// batches agree as long as the sessions are in lockstep.
	lowestUnvalidated := func(validated []int, total int) []int {
		isValidated := make(map[int]bool, len(validated))
		for _, o := range validated {
			isValidated[o] = true
		}
		var picks []int
		for o := 0; o < total && len(picks) < 2; o++ {
			if !isValidated[o] {
				picks = append(picks, o)
			}
		}
		return picks
	}

	var wg sync.WaitGroup
	writerDone := make([]chan struct{}, numSessions)
	errs := make(chan error, numSessions*2)

	for i, p := range plans {
		writerDone[i] = make(chan struct{})
		// Writer: the deterministic operation sequence over HTTP.
		wg.Add(1)
		go func(p *sessionPlan, done chan struct{}) {
			defer wg.Done()
			defer close(done)
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("writer %s: "+format, append([]any{p.name}, args...)...)
			}
			for step := 0; step < steps; step++ {
				switch {
				case step%4 == 0 && step/4 < len(p.chunks): // ingest a chunk
					answers := make([]AnswerJSON, len(p.chunks[step/4]))
					for j, a := range p.chunks[step/4] {
						answers[j] = AnswerJSON{Object: a.Object, Worker: a.Worker, Label: int(a.Label)}
					}
					if status, e := c.do("POST", "/v1/sessions/"+p.name+"/answers", IngestRequest{Answers: answers}, nil); e != nil {
						fail("ingest step %d: status %d %+v", step, status, e)
						return
					}
				case step%4 == 2: // batch: two lowest unvalidated objects
					var result ResultResponse
					if status, e := c.do("GET", "/v1/sessions/"+p.name+"/result", nil, &result); e != nil {
						fail("result step %d: status %d %+v", step, status, e)
						return
					}
					picks := lowestUnvalidated(result.Validated, result.Objects)
					batch := make([]ValidationJSON, len(picks))
					for j, o := range picks {
						batch[j] = ValidationJSON{Object: o, Label: int(p.dataset.Truth[o])}
					}
					if status, e := c.do("POST", "/v1/sessions/"+p.name+"/validations", SubmitRequest{Validations: batch}, nil); e != nil {
						fail("batch step %d: status %d %+v", step, status, e)
						return
					}
				default: // guided step: next + submit the truth label
					var next NextResponse
					if status, e := c.do("GET", "/v1/sessions/"+p.name+"/next", nil, &next); e != nil {
						fail("next step %d: status %d %+v", step, status, e)
						return
					}
					if status, e := c.do("POST", "/v1/sessions/"+p.name+"/validations", SubmitRequest{
						Validations: []ValidationJSON{{Object: next.Object, Label: int(p.dataset.Truth[next.Object])}},
					}, nil); e != nil {
						fail("submit step %d: status %d %+v", step, status, e)
						return
					}
				}
				if step == steps/2 {
					// Mid-traffic explicit snapshot read, concurrent with the
					// other sessions' churn.
					c.snapshotBytes(p.name)
				}
			}
		}(p, writerDone[i])

		// Reader: hammers result and metrics until the writer finishes.
		wg.Add(1)
		go func(p *sessionPlan, done chan struct{}) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var result ResultResponse
				if status, e := c.do("GET", "/v1/sessions/"+p.name+"/result", nil, &result); e != nil {
					errs <- fmt.Errorf("reader %s: status %d %+v", p.name, status, e)
					return
				}
				if status, e := c.do("GET", "/v1/metrics", nil, &Stats{}); e != nil {
					errs <- fmt.Errorf("reader %s metrics: status %d %+v", p.name, status, e)
					return
				}
			}
		}(p, writerDone[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The eviction machinery must actually have fired mid-traffic, otherwise
	// this test does not cover the park/resume path.
	var stats Stats
	c.must("GET", "/v1/metrics", nil, &stats)
	if stats.Evictions == 0 || stats.Resumes == 0 {
		t.Fatalf("no evict/resume traffic under a 1-byte budget: %+v", stats)
	}

	// Serial replay: the same operation sequences on plain Sessions, no
	// server anywhere. The final snapshots must match byte for byte.
	for _, p := range plans {
		answers, err := crowdval.NewAnswerSetFromMatrix(p.matrix, 2)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := crowdval.NewSession(answers, p.options.libraryOptions()...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for step := 0; step < steps; step++ {
			switch {
			case step%4 == 0 && step/4 < len(p.chunks):
				if err := ref.AddAnswers(ctx, p.chunks[step/4]); err != nil {
					t.Fatalf("replay %s ingest step %d: %v", p.name, step, err)
				}
			case step%4 == 2:
				validation := ref.Validation()
				var validated []int
				for o := 0; o < ref.NumObjects(); o++ {
					if validation.Validated(o) {
						validated = append(validated, o)
					}
				}
				picks := lowestUnvalidated(validated, ref.NumObjects())
				batch := make([]crowdval.ValidationInput, len(picks))
				for j, o := range picks {
					batch[j] = crowdval.ValidationInput{Object: o, Label: p.dataset.Truth[o]}
				}
				if _, err := ref.SubmitValidations(ctx, batch); err != nil {
					t.Fatalf("replay %s batch step %d: %v", p.name, step, err)
				}
			default:
				object, err := ref.NextObject()
				if err != nil {
					t.Fatalf("replay %s next step %d: %v", p.name, step, err)
				}
				if _, err := ref.SubmitValidation(object, p.dataset.Truth[object]); err != nil {
					t.Fatalf("replay %s submit step %d: %v", p.name, step, err)
				}
			}
		}
		want, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		got := c.snapshotBytes(p.name)
		if !bytes.Equal(got, want) {
			t.Fatalf("session %s: server-path snapshot differs from serial replay (%d vs %d bytes) — the serving layer broke determinism", p.name, len(got), len(want))
		}
	}
}

// TestResumeBodyOverLimitOrShort: the resume handler reads the snapshot body
// under the server's body limit. A body over the limit answers 413
// ErrBadRequest and a truncated body 400 ErrBadSnapshot; neither installs
// anything. A body exactly at the limit resumes.
func TestResumeBodyOverLimitOrShort(t *testing.T) {
	s, err := crowdval.NewSession(testCrowd(t, 20, 6, 3).Answers, crowdval.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	manager, err := NewManager(ManagerConfig{ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(manager)
	srv.MaxBodyBytes = int64(len(snap))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	post := func(name string, body []byte) (int, ErrorResponse) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+name+"/resume", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var errBody ErrorResponse
		json.NewDecoder(resp.Body).Decode(&errBody)
		return resp.StatusCode, errBody
	}
	for name, want := range map[string]struct {
		body   []byte
		status int
		code   string
	}{
		"over":  {append(append([]byte(nil), snap...), 0), http.StatusRequestEntityTooLarge, "ErrBadRequest"},
		"short": {snap[:len(snap)/2], http.StatusBadRequest, "ErrBadSnapshot"},
	} {
		if status, errBody := post(name, want.body); status != want.status || errBody.Code != want.code {
			t.Fatalf("%s body: status %d, %+v; want %d %s", name, status, errBody, want.status, want.code)
		}
		if manager.Has(name) {
			t.Fatalf("%s body installed a session", name)
		}
	}
	if status, errBody := post("exact", snap); status != http.StatusCreated {
		t.Fatalf("body at the limit: status %d, %+v; want 201", status, errBody)
	}
}
