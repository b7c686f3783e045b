package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"crowdval/internal/server"
	"crowdval/internal/wal"
)

// maxConns is the connection cap of the load generator: one process drives
// the server over at most two loopback connections, one per client.
const maxConns = 2

// setupReps is how often a workload creates its sessions; setup_s is the
// median of the repetitions, and the last repetition's sessions serve the
// timed phase.
const setupReps = 5

// env is one in-process crowdval server reached over loopback HTTP.
type env struct {
	manager *server.Manager
	srv     *httptest.Server
	client  *http.Client
	base    string
}

// newManager builds a manager with the durability configuration every
// workload shares: a WAL under interval fsync and the default checkpoint
// cadence, with park and WAL directories under dir.
func newManager(dir string, memoryBudget int64) (*server.Manager, error) {
	policy, err := wal.ParseSyncPolicy(walSyncPolicy)
	if err != nil {
		return nil, err
	}
	return server.NewManager(server.ManagerConfig{
		MemoryBudget: memoryBudget,
		ParkDir:      filepath.Join(dir, "park"),
		WALDir:       filepath.Join(dir, "wal"),
		WALSync:      policy,
	})
}

func newEnv(dir string, memoryBudget int64) (*env, error) {
	m, err := newManager(dir, memoryBudget)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(server.New(m))
	transport := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &env{
		manager: m,
		srv:     srv,
		client:  &http.Client{Transport: transport, Timeout: 2 * time.Minute},
		base:    srv.URL,
	}, nil
}

// close stops the server and closes its idle connections; the manager's WAL
// files are left for the caller's directory removal.
func (e *env) close() {
	e.client.CloseIdleConnections()
	e.srv.Close()
}

// walSyncPolicy is the fsync policy of every workload's WAL.
const walSyncPolicy = "interval"

// httpError is a non-2xx response.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.body) }

// do sends one request and decodes a 2xx JSON response into into (when
// non-nil; a *[]byte receives the raw body). Any other status is an
// *httpError.
func (e *env) do(method, path string, body []byte, into any) error {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &httpError{status: resp.StatusCode, body: strings.TrimSpace(string(payload))}
	}
	switch into := into.(type) {
	case nil:
		return nil
	case *[]byte:
		*into = payload
		return nil
	default:
		return json.Unmarshal(payload, into)
	}
}

// createAll runs setupReps rounds of session creation over the two client
// connections and returns the median round time in seconds. Each round POSTs
// every pre-encoded creation body, the client owning a session sending it;
// every round but the last deletes the sessions again (untimed). The bodies
// are encoded before timing, and the workload's input generation is
// collected first, so a round measures the server: JSON decode, cold EM and
// the WAL create record.
func (e *env) createAll(specs []*sessionSpec) (float64, error) {
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		raw, err := json.Marshal(s.create)
		if err != nil {
			return 0, err
		}
		bodies[i] = raw
	}
	settleMemory()
	var rounds []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		err := forClients(func(c int) error {
			for i, s := range specs {
				if s.client != c {
					continue
				}
				if err := e.do(http.MethodPost, "/v1/sessions", bodies[i], nil); err != nil {
					return fmt.Errorf("creating session %s: %w", s.name, err)
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		rounds = append(rounds, time.Since(start).Seconds())
		if rep == setupReps-1 {
			break
		}
		for _, s := range specs {
			if err := e.do(http.MethodDelete, "/v1/sessions/"+s.name, nil, nil); err != nil {
				return 0, fmt.Errorf("deleting session %s: %w", s.name, err)
			}
		}
	}
	return median(rounds), nil
}

// forClients runs fn once per client concurrently and returns the first
// error after all have returned.
func forClients(fn func(client int) error) error {
	errs := make([]error, maxConns)
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// latencies collects per-operation latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func merge(ls []latencies) []float64 {
	var out []float64
	for _, l := range ls {
		out = append(out, l...)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rssSampler records the peak resident set size of the process while it
// runs, polling /proc/self/status.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes; written by the sampling goroutine until done closes
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if rss := currentRSS(); rss > s.peak {
				s.peak = rss
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}

// currentRSS reads VmRSS from /proc/self/status; 0 where unavailable.
func currentRSS() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// settleMemory collects garbage, returns freed pages to the OS and flushes
// dirty file pages, so the timed phase starts from the same heap and without
// set-up's writes (WAL create records, deleted sessions' logs) still being
// written back under it.
func settleMemory() {
	runtime.GC()
	debug.FreeOSMemory()
	syscall.Sync()
}

// statsDelta is the difference of two cumulative manager stats snapshots.
func statsDelta(after, before server.Stats) server.Stats {
	return server.Stats{
		IngestedAnswers:      after.IngestedAnswers - before.IngestedAnswers,
		IngestBatches:        after.IngestBatches - before.IngestBatches,
		CoalescedIngests:     after.CoalescedIngests - before.CoalescedIngests,
		SubmittedValidations: after.SubmittedValidations - before.SubmittedValidations,
		Selections:           after.Selections - before.Selections,
		GlobalSelections:     after.GlobalSelections - before.GlobalSelections,
		Evictions:            after.Evictions - before.Evictions,
		Resumes:              after.Resumes - before.Resumes,
		EMIterations:         after.EMIterations - before.EMIterations,
		DeltaIterations:      after.DeltaIterations - before.DeltaIterations,
		ShedIngests:          after.ShedIngests - before.ShedIngests,
		ScoreIndexBuilds:     after.ScoreIndexBuilds - before.ScoreIndexBuilds,
		ScoreIndexPatches:    after.ScoreIndexPatches - before.ScoreIndexPatches,
		WALRecords:           after.WALRecords - before.WALRecords,
		WALBytes:             after.WALBytes - before.WALBytes,
		WALSyncs:             after.WALSyncs - before.WALSyncs,
		Checkpoints:          after.Checkpoints - before.Checkpoints,
	}
}
