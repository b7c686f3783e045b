package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdval"
	"crowdval/internal/cluster"
	"crowdval/internal/server"
	"crowdval/internal/simulation"
)

// cmdLoadgen drives a crowdval server with concurrent ingest traffic: a
// configurable number of client goroutines POST batches of synthetic crowd
// answers to a configurable number of sessions, either back to back (closed
// loop) or with Poisson arrivals, and the command reports end-to-end
// throughput plus the server's own metrics (including how many requests the
// ingest coalescing merged). With no -addr it spins up an in-process server
// over a fresh synthetic dataset, so a single command measures the serving
// stack on any machine; with -addr it targets a running `crowdval serve`.
// A comma-separated -addr list spreads the sessions over a fabric: each
// session is created on (and driven against) its rendezvous-hash owner, and
// the report breaks throughput down per node — the numbers behind the
// 1-node vs 3-node scaling table in BENCHMARKS.md.
func cmdLoadgen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "target server address, or comma-separated fabric node list (empty = start an in-process server)")
		sessions = fs.Int("sessions", 4, "number of sessions to create and spread traffic over")
		clients  = fs.Int("clients", 8, "concurrent client goroutines")
		requests = fs.Int("requests", 25, "ingest requests per client")
		batch    = fs.Int("batch", 100, "answers per ingest request")
		objects  = fs.Int("objects", 2000, "objects of the synthetic base dataset")
		workers  = fs.Int("workers", 100, "workers of the synthetic base dataset")
		labels   = fs.Int("labels", 2, "labels of the synthetic base dataset")
		perObj   = fs.Int("answers-per-object", 5, "initial crowd answers per object")
		exact    = fs.Bool("exact", false, "create exact sessions (full warm-EM aggregation and scoring) instead of the default delta ones")
		mix      = fs.String("mix", "ingest", "workload mix: ingest (pure ingestion), next (alternate ingest and next-object requests), or globalnext (alternate ingest and global cross-session rankings)")
		strategy = fs.String("strategy", string(crowdval.StrategyBaseline), "guidance strategy of the created sessions")
		nextK    = fs.Int("next-k", 5, "ranking size of the next-object requests of -mix next")
		arrival  = fs.String("arrival", "closed", "arrival pattern: closed (back-to-back) or poisson")
		rate     = fs.Float64("rate", 20, "mean requests/sec per client for -arrival poisson")
		seed     = fs.Int64("seed", 1, "random seed for the dataset and the request streams")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sessions < 1 || *clients < 1 || *requests < 1 || *batch < 1 || *nextK < 1 {
		return fmt.Errorf("loadgen: -sessions, -clients, -requests, -batch and -next-k must be positive")
	}
	if *arrival != "closed" && *arrival != "poisson" {
		return fmt.Errorf("loadgen: unknown arrival pattern %q (closed, poisson)", *arrival)
	}
	if *mix != "ingest" && *mix != "next" && *mix != "globalnext" {
		return fmt.Errorf("loadgen: unknown mix %q (ingest, next, globalnext)", *mix)
	}

	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects:       *objects,
		NumWorkers:       *workers,
		NumLabels:        *labels,
		AnswersPerObject: *perObj,
		NormalAccuracy:   0.7,
		Mix:              simulation.WorkerMix{Normal: 0.75, RandomSpammer: 0.25},
		Seed:             *seed,
	})
	if err != nil {
		return err
	}

	targets := splitPeers(*addr)
	var baseURLs []string
	if len(targets) == 0 {
		parkDir, err := os.MkdirTemp("", "crowdval-loadgen-")
		if err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}
		defer os.RemoveAll(parkDir)
		manager, err := server.NewManager(server.ManagerConfig{ParkDir: parkDir})
		if err != nil {
			return err
		}
		srv := httptest.NewServer(server.New(manager))
		defer srv.Close()
		targets = []string{"in-process"}
		baseURLs = []string{srv.URL}
	} else {
		for _, t := range targets {
			baseURLs = append(baseURLs, "http://"+t)
		}
	}
	// Sessions land on their rendezvous-hash owner, mirroring how the
	// routing tier would place them, so a multi-node run measures the fabric
	// without a router in the measurement path.
	nodeOf := func(string) int { return 0 }
	if len(targets) > 1 {
		ring, err := cluster.NewRing(targets)
		if err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}
		index := make(map[string]int, len(targets))
		for i, t := range targets {
			index[t] = i
		}
		nodeOf = func(name string) int { return index[ring.Owner(name)] }
	}
	client := &http.Client{Timeout: 2 * time.Minute}

	fmt.Fprintf(out, "creating %d sessions over %d×%d @ %d answers/object (exact=%v)\n",
		*sessions, *objects, *workers, *perObj, *exact)
	baseAnswers := make([]server.AnswerJSON, 0, d.Answers.AnswerCount())
	for o := 0; o < d.Answers.NumObjects(); o++ {
		for _, wa := range d.Answers.ObjectAnswers(o) {
			baseAnswers = append(baseAnswers, server.AnswerJSON{Object: o, Worker: wa.Worker, Label: int(wa.Label)})
		}
	}
	names := make([]string, *sessions)
	sessionNode := make([]int, *sessions)
	for i := range names {
		names[i] = fmt.Sprintf("loadgen-%d", i)
		sessionNode[i] = nodeOf(names[i])
		req := server.CreateSessionRequest{
			Name:    names[i],
			Objects: *objects, Workers: *workers, NumLabels: *labels,
			Answers: baseAnswers,
			Options: server.SessionConfig{
				Strategy: *strategy, Seed: *seed + int64(i),
				Exact: *exact,
			},
		}
		if err := postJSON(client, baseURLs[sessionNode[i]]+"/v1/sessions", req, http.StatusCreated); err != nil {
			return fmt.Errorf("loadgen: creating session %s: %w", names[i], err)
		}
	}

	type nodeCounters struct{ sent, next, failed atomic.Int64 }
	perNode := make([]nodeCounters, len(baseURLs))
	var sent, nextSent, failed atomic.Int64
	var classes statusClasses
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + 1000*int64(c)))
			session := names[c%len(names)]
			node := sessionNode[c%len(names)]
			baseURL := baseURLs[node]
			for r := 0; r < *requests; r++ {
				if *arrival == "poisson" && *rate > 0 {
					time.Sleep(time.Duration(rng.ExpFloat64() / *rate * float64(time.Second)))
				}
				// The mixed workload alternates ingest and next-object
				// requests, exercising writers and read-locked guidance
				// scoring against the same sessions concurrently.
				if (*mix == "next" || *mix == "globalnext") && r%2 == 1 {
					url := fmt.Sprintf("%s/v1/sessions/%s/next?k=%d", baseURL, session, *nextK)
					var into any = &server.NextResponse{}
					if *mix == "globalnext" {
						// The marketplace read: rank across every session the
						// node holds, concurrently with the other clients'
						// ingest writers.
						url = fmt.Sprintf("%s/v1/next?k=%d", baseURL, *nextK)
						into = &server.GlobalNextResponse{}
					}
					if err := getJSONClassified(client, url, into, &classes); err != nil {
						failed.Add(1)
						perNode[node].failed.Add(1)
						firstErr.CompareAndSwap(nil, &err)
						continue
					}
					nextSent.Add(1)
					perNode[node].next.Add(1)
					continue
				}
				req := server.IngestRequest{Answers: make([]server.AnswerJSON, *batch)}
				for j := range req.Answers {
					req.Answers[j] = server.AnswerJSON{
						Object: rng.Intn(*objects),
						Worker: rng.Intn(*workers),
						Label:  rng.Intn(*labels),
					}
				}
				if err := postJSONClassified(client, baseURL+"/v1/sessions/"+session+"/answers", req, http.StatusOK, &classes); err != nil {
					failed.Add(1)
					perNode[node].failed.Add(1)
					firstErr.CompareAndSwap(nil, &err)
					continue
				}
				sent.Add(1)
				perNode[node].sent.Add(1)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var stats server.Stats
	for _, baseURL := range baseURLs {
		var s server.Stats
		if err := getJSON(client, baseURL+"/v1/metrics", &s); err != nil {
			return fmt.Errorf("loadgen: fetching metrics from %s: %w", baseURL, err)
		}
		stats.IngestedAnswers += s.IngestedAnswers
		stats.IngestBatches += s.IngestBatches
		stats.CoalescedIngests += s.CoalescedIngests
		stats.Selections += s.Selections
		stats.EMIterations += s.EMIterations
	}
	ok := sent.Load()
	nextOK := nextSent.Load()
	fmt.Fprintf(out, "loadgen: %d clients × %d requests × %d answers (%s arrivals, %s mix) in %v\n",
		*clients, *requests, *batch, *arrival, *mix, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  requests:   %d ingest ok, %d next ok, %d failed (%.1f req/sec)\n",
		ok, nextOK, failed.Load(), float64(ok+nextOK)/elapsed.Seconds())
	fmt.Fprintf(out, "  status:     %d 2xx, %d 421 misdirected, %d 429 shed, %d 503 degraded, %d other; %d retries honored Retry-After\n",
		classes.ok.Load(), classes.misdirected.Load(), classes.shed.Load(),
		classes.degraded.Load(), classes.other.Load(), classes.retried.Load())
	fmt.Fprintf(out, "  answers:    %.0f answers/sec end to end\n",
		float64(ok)*float64(*batch)/elapsed.Seconds())
	if *mix == "next" || *mix == "globalnext" {
		fmt.Fprintf(out, "  selections: %.1f next/sec end to end (k=%d)\n",
			float64(nextOK)/elapsed.Seconds(), *nextK)
	}
	if len(baseURLs) > 1 {
		for i, t := range targets {
			nodeOK, nodeNext := perNode[i].sent.Load(), perNode[i].next.Load()
			fmt.Fprintf(out, "  node %-21s %d ingest ok, %d next ok, %d failed (%.1f req/sec, %.0f answers/sec)\n",
				t+":", nodeOK, nodeNext, perNode[i].failed.Load(),
				float64(nodeOK+nodeNext)/elapsed.Seconds(),
				float64(nodeOK)*float64(*batch)/elapsed.Seconds())
		}
	}
	fmt.Fprintf(out, "  server:     %d answers ingested in %d batches, %d requests coalesced, %d selections, %d EM iterations\n",
		stats.IngestedAnswers, stats.IngestBatches, stats.CoalescedIngests, stats.Selections, stats.EMIterations)
	// A non-zero exit on failed requests is what makes the CI smoke run a
	// real gate on the CLI → HTTP → ingest/next path.
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("loadgen: %d of %d requests failed (first: %v)", n, n+ok+nextOK, *firstErr.Load())
	}
	return nil
}

// statusClasses breaks the driven traffic down by response class: 2xx
// (accepted), 421 (misdirected — the fabric moved the session), 429 (load
// shed), 503 (degraded read-only mode), and everything else. retried counts
// attempts that honored a Retry-After header before trying again.
type statusClasses struct {
	ok, misdirected, shed, degraded, other atomic.Int64
	retried                                atomic.Int64
}

func (c *statusClasses) note(status int) {
	switch {
	case status >= 200 && status < 300:
		c.ok.Add(1)
	case status == http.StatusMisdirectedRequest:
		c.misdirected.Add(1)
	case status == http.StatusTooManyRequests:
		c.shed.Add(1)
	case status == http.StatusServiceUnavailable:
		c.degraded.Add(1)
	default:
		c.other.Add(1)
	}
}

// loadgenRetryAttempts bounds how often one logical request re-tries after a
// Retry-After'd rejection before it is reported as failed.
const loadgenRetryAttempts = 3

// retryAfter reads a response's Retry-After header as a delay, false when
// absent or unusable (only delta-seconds form is produced by crowdval).
func retryAfter(resp *http.Response) (time.Duration, bool) {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// postJSONClassified is postJSON with per-status-class accounting, honoring
// Retry-After on 429 (shed) and 503 (degraded) responses: the request is
// retried after the server-indicated delay, a bounded number of times.
func postJSONClassified(client *http.Client, url string, body any, wantStatus int, cls *statusClasses) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	for attempt := 1; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			cls.other.Add(1)
			return err
		}
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cls.note(resp.StatusCode)
		if resp.StatusCode == wantStatus {
			return nil
		}
		if delay, ok := retryAfter(resp); ok && attempt < loadgenRetryAttempts &&
			(resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
			cls.retried.Add(1)
			time.Sleep(delay)
			continue
		}
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
}

// getJSONClassified is getJSON with per-status-class accounting (reads are
// never Retry-After'd: they keep serving even in degraded mode).
func getJSONClassified(client *http.Client, url string, into any, cls *statusClasses) error {
	resp, err := client.Get(url)
	if err != nil {
		cls.other.Add(1)
		return err
	}
	defer resp.Body.Close()
	cls.note(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// postJSON posts a JSON body and checks the response status, draining the
// response body so connections are reused.
func postJSON(client *http.Client, url string, body any, wantStatus int) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	return nil
}

// getJSON fetches a JSON document.
func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
