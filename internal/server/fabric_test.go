package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"crowdval"
	"crowdval/internal/cverr"
	"crowdval/internal/wal"
)

func TestHandoffSessionMovesState(t *testing.T) {
	d := testCrowd(t, 16, 5, 11)
	extra := testCrowd(t, 16, 3, 13)
	ctx := context.Background()
	aWAL, bWAL := t.TempDir(), t.TempDir()
	const name = "moving"

	a, err := NewManager(walManagerConfig(t, aWAL, 3)) // checkpoints on: handoff after a rotation
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Create(ctx, name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	ops := walScript(d, extra)
	runScript(t, a, name, ops[:5], true)
	want := managerSnapshot(t, a, name)
	lsnA, err := a.SessionLSN(name)
	if err != nil {
		t.Fatal(err)
	}

	var gotSnap []byte
	var gotLSN uint64
	if err := a.HandoffSession(ctx, name, func(snap []byte, lsn uint64) error {
		gotSnap, gotLSN = snap, lsn
		return nil
	}); err != nil {
		t.Fatalf("HandoffSession: %v", err)
	}
	if !bytes.Equal(gotSnap, want) {
		t.Fatal("handoff snapshot differs from the session's own snapshot")
	}
	if gotLSN != lsnA {
		t.Fatalf("handoff LSN = %d, want %d", gotLSN, lsnA)
	}
	// The donor retired its copy: the name is free, the durability files gone.
	if _, err := a.Snapshot(ctx, name); !errors.Is(err, cverr.ErrSessionNotFound) {
		t.Fatalf("donor still serves the session: %v", err)
	}
	for _, leftover := range []string{name + ".wal", name + ".ckpt", name + ".ckpt.prev"} {
		if _, err := os.Stat(filepath.Join(aWAL, leftover)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("donor kept %s after handoff", leftover)
		}
	}

	b, err := NewManager(walManagerConfig(t, bWAL, -1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateFromHandoff(ctx, name, gotSnap, gotLSN); err != nil {
		t.Fatalf("CreateFromHandoff: %v", err)
	}
	if got := managerSnapshot(t, b, name); !bytes.Equal(got, want) {
		t.Fatal("adopted session state differs from the donor's")
	}
	// LSN numbering continues across the handoff.
	if lsnB, _ := b.SessionLSN(name); lsnB != gotLSN {
		t.Fatalf("adopted LSN = %d, want %d", lsnB, gotLSN)
	}

	// The adopted session keeps full durability: run the rest of the script,
	// crash, recover — byte-identical, like any home-grown full-path session.
	runScript(t, b, name, ops[5:], true)
	want2 := managerSnapshot(t, b, name)
	rm, report := recoverInto(t, bWAL, -1)
	if len(report) != 1 || report[0].Err != nil {
		t.Fatalf("recovering adopted session: %+v", report)
	}
	if report[0].CheckpointLSN != gotLSN {
		t.Fatalf("recovery resumed checkpoint LSN %d, want the handoff LSN %d", report[0].CheckpointLSN, gotLSN)
	}
	if got := managerSnapshot(t, rm, name); !bytes.Equal(got, want2) {
		t.Fatal("recovered adopted session differs from its live state")
	}
}

// TestHandoffReleasesDonorAccounting: a handed-off session leaves nothing
// behind in the donor's metrics — no session, no resident bytes, and no
// outstanding monetary budget (the tenant's budget moved with it).
func TestHandoffReleasesDonorAccounting(t *testing.T) {
	d := testCrowd(t, 16, 5, 17)
	ctx := context.Background()
	m, err := NewManager(ManagerConfig{ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	opts := sessionOpts(crowdval.WithCostBudget(crowdval.CostTracker{Theta: 10, Budget: 100}))
	if err := m.Create(ctx, "paid", d.Answers.Clone(), opts...); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().BudgetRemaining; got != 100 {
		t.Fatalf("BudgetRemaining before handoff = %g, want 100", got)
	}
	if err := m.HandoffSession(ctx, "paid", func([]byte, uint64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Sessions != 0 || st.ResidentBytes != 0 || st.BudgetRemaining != 0 {
		t.Fatalf("donor stats after handoff: %d sessions, %d resident bytes, %g budget; want all zero",
			st.Sessions, st.ResidentBytes, st.BudgetRemaining)
	}
}

func TestHandoffSendFailureKeepsSession(t *testing.T) {
	d := testCrowd(t, 12, 4, 5)
	ctx := context.Background()
	walDir := t.TempDir()
	m, err := NewManager(walManagerConfig(t, walDir, -1))
	if err != nil {
		t.Fatal(err)
	}
	const name = "staying"
	if err := m.Create(ctx, name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	sendErr := errors.New("target unreachable")
	if err := m.HandoffSession(ctx, name, func([]byte, uint64) error { return sendErr }); !errors.Is(err, sendErr) {
		t.Fatalf("HandoffSession = %v, want the send error", err)
	}
	// The session still serves, mutates and logs.
	if _, err := m.Submit(ctx, name, 0, d.Truth[0]); err != nil {
		t.Fatalf("Submit after failed handoff: %v", err)
	}
	if _, err := os.Stat(filepath.Join(walDir, name+".wal")); err != nil {
		t.Fatalf("WAL gone after failed handoff: %v", err)
	}
}

// TestFollowerReplicationViaWALTail drives the whole follower pipeline
// in-process: snapshot reset, tailing the leader's log, applying each record
// through ReplicaApply — and asserts the follower's state is byte-identical
// to the leader's, including a deterministically re-failing record.
func TestFollowerReplicationViaWALTail(t *testing.T) {
	d := testCrowd(t, 16, 5, 11)
	extra := testCrowd(t, 16, 3, 13)
	ctx := context.Background()
	const name = "followed"

	leader, err := NewManager(walManagerConfig(t, t.TempDir(), -1))
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Create(ctx, name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	ops := walScript(d, extra)
	runScript(t, leader, name, ops[:4], true)

	follower, err := NewManager(walManagerConfig(t, t.TempDir(), -1))
	if err != nil {
		t.Fatal(err)
	}
	snap, lsn, err := leader.SnapshotWithLSN(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ReplicaReset(ctx, name, snap, lsn); err != nil {
		t.Fatalf("ReplicaReset: %v", err)
	}

	// The leader keeps mutating — including ops[4], which fails live and must
	// re-fail identically on the follower.
	runScript(t, leader, name, ops[4:], true)

	path, err := leader.SessionWALPath(name)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := wal.OpenTailer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	applied := 0
	for {
		rec, recLSN, err := tl.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("tailing leader log: %v", err)
		}
		if recLSN <= lsn {
			continue // covered by the reset snapshot
		}
		if err := follower.ReplicaApply(ctx, name, recLSN, rec); err != nil {
			t.Fatalf("ReplicaApply LSN %d: %v", recLSN, err)
		}
		applied++
	}
	if applied == 0 {
		t.Fatal("no records streamed beyond the reset point")
	}

	leaderLSN, _ := leader.SessionLSN(name)
	followerLSN, _ := follower.SessionLSN(name)
	if leaderLSN != followerLSN {
		t.Fatalf("follower LSN %d != leader LSN %d", followerLSN, leaderLSN)
	}
	wantSnap := managerSnapshot(t, leader, name)
	gotSnap := managerSnapshot(t, follower, name)
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Fatal("follower state diverged from the leader")
	}

	// Duplicate records (reconnect signature) are skipped without mutating...
	dup := submitRecord(0, d.Truth[0])
	if err := follower.ReplicaApply(ctx, name, followerLSN, dup); err != nil {
		t.Fatalf("duplicate ReplicaApply: %v", err)
	}
	if got := managerSnapshot(t, follower, name); !bytes.Equal(got, wantSnap) {
		t.Fatal("duplicate apply mutated the replica")
	}
	// ...and a gap is rejected through ErrBadWAL so the follower resets.
	if err := follower.ReplicaApply(ctx, name, followerLSN+7, dup); !errors.Is(err, cverr.ErrBadWAL) {
		t.Fatalf("gapped ReplicaApply = %v, want ErrBadWAL", err)
	}
}

// TestWALFlushEachRecordVisibility pins the WALFlushEachRecord contract: with
// a buffered sync policy a tailer sees each record as soon as the mutation is
// acknowledged, instead of at the next sync point.
func TestWALFlushEachRecordVisibility(t *testing.T) {
	d := testCrowd(t, 12, 4, 5)
	ctx := context.Background()
	cfg := ManagerConfig{
		ParkDir:            t.TempDir(),
		CheckpointEvery:    -1,
		WALFlushEachRecord: true,
	}.WithWAL(t.TempDir(), wal.SyncPolicy{Mode: wal.SyncInterval, Interval: 1 << 20})
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const name = "fresh"
	if err := m.Create(ctx, name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	path, err := m.SessionWALPath(name)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := wal.OpenTailer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if _, lsn, err := tl.Next(); err != nil || lsn != 1 {
		t.Fatalf("create record not visible: LSN %d, %v", lsn, err)
	}
	if _, err := m.Submit(ctx, name, 0, d.Truth[0]); err != nil {
		t.Fatal(err)
	}
	// The sync interval is effectively infinite, so only the per-record flush
	// can have made this record visible.
	rec, lsn, err := tl.Next()
	if err != nil || lsn != 2 || rec.Type != wal.RecSubmit {
		t.Fatalf("submitted record not visible after ack: type %d LSN %d, %v", rec.Type, lsn, err)
	}
}

// TestCloseRacesCoalescedIngest is the graceful-shutdown satellite: Manager.
// Close racing a storm of concurrent (coalescing) ingests must leave every
// acknowledged answer durable and every other request cleanly rejected —
// never a dropped ack, never a hung ticket. The buffered sync policy makes
// the flush in Close load-bearing: without it, acked records would sit in
// appender buffers.
func TestCloseRacesCoalescedIngest(t *testing.T) {
	d := testCrowd(t, 12, 4, 7)
	ctx := context.Background()
	walDir := t.TempDir()
	cfg := ManagerConfig{ParkDir: t.TempDir(), CheckpointEvery: -1}.
		WithWAL(walDir, wal.SyncPolicy{Mode: wal.SyncInterval, Interval: 1 << 20})
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const name = "closing"
	if err := m.Create(ctx, name, d.Answers.Clone(), sessionOpts(crowdval.WithDeltaIngest())...); err != nil {
		t.Fatal(err)
	}
	var initial int
	if err := m.View(ctx, name, func(s *crowdval.Session) error {
		initial = s.AnswerCount()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const requests = 32
	var acked atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// One answer per request from a unique new worker, so durability
			// is countable: recovered answers = initial + acked requests.
			_, err := m.AddAnswers(ctx, name, []crowdval.Answer{{
				Object: i % d.Answers.NumObjects(),
				Worker: d.Answers.NumWorkers() + i,
				Label:  1,
			}})
			if err == nil {
				acked.Add(1)
			}
		}(i)
	}
	closeDone := make(chan error, 1)
	close(start)
	go func() { closeDone <- m.Close() }()
	wg.Wait()
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}

	rm, report := recoverInto(t, walDir, -1)
	if len(report) != 1 || report[0].Err != nil {
		t.Fatalf("recovery after close: %+v", report)
	}
	var recovered int
	if err := rm.View(ctx, name, func(s *crowdval.Session) error {
		recovered = s.AnswerCount()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := initial + int(acked.Load())
	if recovered != want {
		t.Fatalf("recovered %d answers, want %d (initial %d + %d acked): an acked ingest was dropped or an unacked one leaked",
			recovered, want, initial, acked.Load())
	}
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	manager, err := NewManager(ManagerConfig{ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(manager)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if status, body := get("/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", status, body)
	}
	// Not ready until recovery finished.
	if status, _ := get("/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady = %d, want 503", status)
	}
	srv.SetReady(true)
	if status, body := get("/readyz"); status != http.StatusOK || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("readyz after SetReady = %d %q", status, body)
	}
	srv.SetDraining(true)
	if status, body := get("/readyz"); status != http.StatusServiceUnavailable || !strings.Contains(body, `"draining":true`) {
		t.Fatalf("readyz while draining = %d %q", status, body)
	}
	// Liveness is unaffected by drain.
	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", status)
	}
}

func TestOwnerCheckGatesWritePaths(t *testing.T) {
	d := testCrowd(t, 8, 4, 3)
	manager, err := NewManager(ManagerConfig{ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(manager)
	const owner = "10.0.0.2:7001"
	srv.SetOwnerCheck(func(name string) error {
		if name == "mine" {
			return nil
		}
		return &NotOwnerError{Name: name, Owner: owner}
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &client{t: t, base: hs.URL, http: hs.Client()}

	c.must("POST", "/v1/sessions", CreateSessionRequest{
		Name: "mine", Matrix: matrixOf(d.Answers), Options: SessionConfig{Strategy: "baseline", Seed: 1},
	}, nil)

	misdirected := func(method, path string, body any) {
		t.Helper()
		status, errResp := c.do(method, path, body, nil)
		if status != http.StatusMisdirectedRequest {
			t.Fatalf("%s %s = %d, want 421", method, path, status)
		}
		if errResp.Code != "ErrNotOwner" || errResp.Owner != owner {
			t.Fatalf("%s %s error = %+v, want code ErrNotOwner with owner %s", method, path, errResp, owner)
		}
	}
	misdirected("POST", "/v1/sessions", CreateSessionRequest{Name: "theirs", Matrix: matrixOf(d.Answers)})
	misdirected("POST", "/v1/sessions/theirs/answers", IngestRequest{Answers: []AnswerJSON{{Object: 0, Worker: 0, Label: 1}}})
	misdirected("GET", "/v1/sessions/theirs/next", nil)
	misdirected("POST", "/v1/sessions/theirs/validations", SubmitRequest{Validations: []ValidationJSON{{Object: 0, Label: 1}}})
	misdirected("DELETE", "/v1/sessions/theirs", nil)

	// Reads are not owner-gated: a replica may serve them. An absent session
	// is still a plain 404.
	if status, _ := c.do("GET", "/v1/sessions/theirs/result", nil, nil); status != http.StatusNotFound {
		t.Fatalf("GET result of unowned absent session = %d, want 404", status)
	}
	// The owned session is untouched by the gate.
	c.must("GET", "/v1/sessions/mine/result", nil, nil)
}

func TestOverloadedResponseCarriesRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, fmt.Errorf("%w: queue full", cverr.ErrOverloaded))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q", got, "1")
	}
	rec = httptest.NewRecorder()
	writeError(rec, fmt.Errorf("%w: nope", cverr.ErrSessionNotFound))
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Fatalf("Retry-After on a 404 = %q, want unset", got)
	}
}

func TestClusterStatsInMetricsEndpoints(t *testing.T) {
	manager, err := NewManager(ManagerConfig{ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(manager)
	sample := ClusterStats{
		Self: "127.0.0.1:7001", Peers: 3,
		SessionsOwned: 5, FollowedSessions: 2,
		HandoffsIn: 1, HandoffsOut: 4,
		ReplicationLagLSN: 7, Promotions: 1, NotOwnerRejects: 9,
	}
	srv.SetClusterStats(func() ClusterStats { return sample })
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"crowdval_cluster_peers 3",
		"crowdval_cluster_sessions_owned 5",
		"crowdval_cluster_sessions_followed 2",
		"crowdval_cluster_handoffs_in_total 1",
		"crowdval_cluster_handoffs_out_total 4",
		"crowdval_cluster_replication_lag_lsns 7",
		"crowdval_cluster_promotions_total 1",
		"crowdval_cluster_not_owner_total 9",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	c := &client{t: t, base: hs.URL, http: hs.Client()}
	var mr MetricsResponse
	c.must("GET", "/v1/metrics", nil, &mr)
	if mr.Cluster == nil || *mr.Cluster != sample {
		t.Fatalf("/v1/metrics cluster = %+v, want %+v", mr.Cluster, sample)
	}
}
