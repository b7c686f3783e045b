package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"crowdval"
	"crowdval/internal/aggregation"
	"crowdval/internal/server"
)

// TestLeaderKillPromotionAtEveryBoundary is the marquee crash harness: a
// leader and a follower on real loopback listeners, the durability script
// cut at every op boundary. At each cut the follower catches up, the leader
// is killed (listener torn down, manager abandoned — never flushed), the
// follower is promoted over the internal endpoint, and its state must be
// byte-identical to a serial replay of exactly the acknowledged ops.
func TestLeaderKillPromotionAtEveryBoundary(t *testing.T) {
	d := testCrowd(t, 16, 5, 11)
	extra := testCrowd(t, 16, 3, 13)
	ops := fabricScript(d, extra)
	opts := sessionOpts()
	for k := 0; k <= len(ops); k++ {
		t.Run(fmt.Sprintf("kill-after-op-%d", k), func(t *testing.T) {
			// Checkpoint every 3 records so streams cross log rotations.
			nodes := startFabric(t, 2, 3)
			leader, fol := nodes[0], nodes[1]
			name := nameOwnedBy(leader.node.Ring(), leader.addr)
			ctx := context.Background()
			if err := leader.manager.Create(ctx, name, d.Answers.Clone(), opts...); err != nil {
				t.Fatal(err)
			}
			fol.follow(leader.addr)

			acked := applyOps(t, leader.manager, name, ops[:k])
			leaderLSN, err := leader.manager.SessionLSN(name)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, func() bool {
				lsn, err := fol.manager.SessionLSN(name)
				return err == nil && lsn == leaderLSN
			}, "follower catch-up")

			leader.kill()
			fol.stopFollower()

			// Before promotion the follower still bounces writes to the
			// (dead) ring owner.
			if status := postJSON(t, fol.addr, "/v1/sessions/"+name+"/answers",
				server.IngestRequest{Answers: []server.AnswerJSON{{Object: 0, Worker: 99, Label: 1}}}, nil); status != http.StatusMisdirectedRequest {
				t.Fatalf("pre-promotion ingest on follower = %d, want 421", status)
			}

			var promoted promoteResponse
			if status := postJSON(t, fol.addr, "/internal/v1/promote", promoteRequest{Name: name}, &promoted); status != http.StatusOK {
				t.Fatalf("promote = %d, want 200", status)
			}
			if len(promoted.Promoted) != 1 || promoted.Promoted[0] != name {
				t.Fatalf("promote adopted %v, want [%s]", promoted.Promoted, name)
			}

			want := serialReplay(t, d, opts, ops[:k], acked)
			got := managerSnapshot(t, fol.manager, name)
			if !bytes.Equal(got, want) {
				t.Fatal("promoted follower state is not byte-identical to the serial replay of the acked ops")
			}

			// The promoted session serves writes through the public gate.
			if status := postJSON(t, fol.addr, "/v1/sessions/"+name+"/answers",
				server.IngestRequest{Answers: []server.AnswerJSON{{Object: 0, Worker: int(99), Label: 1}}}, nil); status != http.StatusOK {
				t.Fatalf("post-promotion ingest = %d, want 200", status)
			}
		})
	}
}

// TestLeaderKillWithLaggingFollower kills the leader without waiting for
// catch-up: whatever the follower holds must still be an exact acked
// PREFIX of the leader's history — never a hole, never a reordering.
func TestLeaderKillWithLaggingFollower(t *testing.T) {
	d := testCrowd(t, 16, 5, 11)
	extra := testCrowd(t, 16, 3, 13)
	ops := fabricScript(d, extra)
	opts := sessionOpts()
	nodes := startFabric(t, 2, -1)
	leader, fol := nodes[0], nodes[1]
	name := nameOwnedBy(leader.node.Ring(), leader.addr)
	ctx := context.Background()
	if err := leader.manager.Create(ctx, name, d.Answers.Clone(), opts...); err != nil {
		t.Fatal(err)
	}
	fol.follow(leader.addr)
	// Wait only for the session to exist on the follower, then race ahead.
	waitFor(t, 10*time.Second, func() bool { return fol.manager.Has(name) }, "follower adoption")

	acked := applyOps(t, leader.manager, name, ops)
	leader.kill()
	fol.stopFollower()

	lsn, err := fol.manager.SessionLSN(name)
	if err != nil {
		t.Fatal(err)
	}
	// The create record is LSN 1 and each op logs exactly one record, so a
	// follower at LSN L has applied exactly the first L-1 ops.
	applied := int(lsn) - 1
	if applied < 0 || applied > len(ops) {
		t.Fatalf("follower LSN %d outside the script's range", lsn)
	}
	want := serialReplay(t, d, opts, ops[:applied], acked[:applied])
	got := managerSnapshot(t, fol.manager, name)
	if !bytes.Equal(got, want) {
		t.Fatalf("lagging follower state (LSN %d) is not the acked prefix of the leader's history", lsn)
	}
}

// TestPromotedDeltaSessionCertificate replicates a delta-ingest session:
// byte equality is not the contract there, the fixed-point certificate is.
func TestPromotedDeltaSessionCertificate(t *testing.T) {
	d := testCrowd(t, 16, 5, 11)
	extra := testCrowd(t, 16, 3, 13)
	opts := sessionOpts(crowdval.WithDeltaIngest())
	nodes := startFabric(t, 2, 3)
	leader, fol := nodes[0], nodes[1]
	name := nameOwnedBy(leader.node.Ring(), leader.addr)
	ctx := context.Background()
	if err := leader.manager.Create(ctx, name, d.Answers.Clone(), opts...); err != nil {
		t.Fatal(err)
	}
	fol.follow(leader.addr)

	var ops []fabOp
	added := 0
	for w := 0; w < 3; w++ {
		var answers []crowdval.Answer
		for o := 0; o < 16; o++ {
			if l := extra.Answers.Answer(o, w); l >= 0 {
				answers = append(answers, crowdval.Answer{Object: o, Worker: d.Answers.NumWorkers() + w, Label: l})
			}
		}
		added += len(answers)
		ops = append(ops, fabOp{answers: answers})
	}
	ops = append(ops, fabOp{object: 0, label: d.Truth[0]})
	applyOps(t, leader.manager, name, ops)

	leaderLSN, err := leader.manager.SessionLSN(name)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		lsn, err := fol.manager.SessionLSN(name)
		return err == nil && lsn == leaderLSN
	}, "follower catch-up")

	leader.kill()
	fol.stopFollower()
	if err := fol.node.Promote(name); err != nil {
		t.Fatal(err)
	}

	sess, err := crowdval.ResumeSession(managerSnapshot(t, fol.manager, name), opts...)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := crowdval.NewSession(d.Answers.Clone(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sess.AnswerCount(), fresh.AnswerCount()+added; got != want {
		t.Fatalf("promoted delta session has %d answers, want %d: an acked ingest was lost", got, want)
	}
	residual, err := aggregation.FixedPointResidual(ctx, sess.ProbabilisticResult(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if residual >= 2*aggregation.DefaultSettleTolerance {
		t.Fatalf("promoted delta session off the fixed point: residual %g", residual)
	}
}

// TestDrainHandsOffWithoutLosingAcks drives a session through the router,
// drains its owner mid-script, and checks the final state against a serial
// replay of every acked op — the drain satellite's no-loss contract — while
// concurrent goroutines hammer every node's metrics endpoints (the
// scrape-under-load race check; run with -race).
func TestDrainHandsOffWithoutLosingAcks(t *testing.T) {
	d := testCrowd(t, 16, 5, 11)
	extra := testCrowd(t, 16, 3, 13)
	ops := fabricScript(d, extra)
	nodes := startFabric(t, 3, 3)
	addrs := []string{nodes[0].addr, nodes[1].addr, nodes[2].addr}
	rt, err := NewRouter(RouterConfig{Peers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	donor := nodes[0]
	name := nameOwnedBy(donor.node.Ring(), donor.addr)
	status, _ := routerPost(t, rts.URL, "/v1/sessions", server.CreateSessionRequest{
		Name:   name,
		Matrix: matrixOf(d.Answers),
		Options: server.SessionConfig{
			Strategy: "baseline", Seed: 3, Parallelism: 1,
		},
	})
	if status != http.StatusCreated {
		t.Fatalf("create via router = %d, want 201", status)
	}
	if !donor.manager.Has(name) {
		t.Fatal("router did not route the create to the ring owner")
	}

	// Scrape every node's metrics endpoints throughout the handoff.
	scrapeStop := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-scrapeStop:
				return
			default:
			}
			for _, fn := range nodes {
				for _, path := range []string{"/metrics", "/v1/metrics"} {
					resp, err := http.Get("http://" + fn.addr + path)
					if err == nil {
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}
	}()

	acked := applyOpsHTTP(t, rts.URL, name, ops[:4])
	if err := donor.node.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if donor.manager.Has(name) {
		t.Fatal("donor still holds the session after drain")
	}
	var holder *fabricNode
	for _, fn := range nodes[1:] {
		if fn.manager.Has(name) {
			holder = fn
			break
		}
	}
	if holder == nil {
		t.Fatal("no surviving node holds the session after drain")
	}
	if holder.node.Owner(name) != holder.addr {
		t.Fatal("handoff receiver does not consider itself owner")
	}
	if donor.node.Stats().HandoffsOut < 1 || holder.node.Stats().HandoffsIn < 1 {
		t.Fatal("handoff counters did not move")
	}

	// The router chases the 421 from the drained donor to the new owner.
	acked = append(acked, applyOpsHTTP(t, rts.URL, name, ops[4:])...)
	close(scrapeStop)
	<-scrapeDone

	want := serialReplay(t, d, sessionOpts(), ops, acked)
	got := managerSnapshot(t, holder.manager, name)
	if !bytes.Equal(got, want) {
		t.Fatal("post-drain state is not the serial replay of the acked ops: an acked op was lost in the handoff")
	}

	// The routed listing still shows the session exactly once.
	resp, err := http.Get(rts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var infos []server.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := 0
	for _, info := range infos {
		if info.Name == name {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("routed listing shows the session %d times, want once", found)
	}
}

// TestRouterFailoverAfterPromotion kills a session's ring owner and checks
// the router converges on the promoted follower with no reconfiguration:
// dead peer quarantined, stale 421s skipped, override holder found.
func TestRouterFailoverAfterPromotion(t *testing.T) {
	d := testCrowd(t, 16, 5, 11)
	extra := testCrowd(t, 16, 3, 13)
	ops := fabricScript(d, extra)
	opts := sessionOpts()
	nodes := startFabric(t, 3, -1)
	leader, fol := nodes[0], nodes[1]
	name := nameOwnedBy(leader.node.Ring(), leader.addr)
	ctx := context.Background()
	if err := leader.manager.Create(ctx, name, d.Answers.Clone(), opts...); err != nil {
		t.Fatal(err)
	}
	fol.follow(leader.addr)

	acked := applyOps(t, leader.manager, name, ops[:6])
	leaderLSN, err := leader.manager.SessionLSN(name)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		lsn, err := fol.manager.SessionLSN(name)
		return err == nil && lsn == leaderLSN
	}, "follower catch-up")

	leader.kill()
	fol.stopFollower()
	if err := fol.node.Promote(name); err != nil {
		t.Fatal(err)
	}

	rt, err := NewRouter(RouterConfig{Peers: []string{nodes[0].addr, nodes[1].addr, nodes[2].addr}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	acked = append(acked, applyOpsHTTP(t, rts.URL, name, ops[6:])...)
	want := serialReplay(t, d, opts, ops, acked)
	got := managerSnapshot(t, fol.manager, name)
	if !bytes.Equal(got, want) {
		t.Fatal("state after routed failover does not match the serial replay of acked ops")
	}

	rt.mu.Lock()
	learned := rt.owners[name]
	rt.mu.Unlock()
	if learned != fol.addr {
		t.Fatalf("router learned owner %q, want the promoted node %q", learned, fol.addr)
	}
}

// applyOpsHTTP runs ops through an HTTP base URL (a router or a node) and
// returns which were acknowledged with HTTP 200.
func applyOpsHTTP(t testing.TB, base, name string, ops []fabOp) []bool {
	t.Helper()
	acked := make([]bool, len(ops))
	for i, op := range ops {
		var path string
		var body any
		switch {
		case op.answers != nil:
			path = "/v1/sessions/" + name + "/answers"
			answers := make([]server.AnswerJSON, len(op.answers))
			for j, a := range op.answers {
				answers[j] = server.AnswerJSON{Object: a.Object, Worker: a.Worker, Label: int(a.Label)}
			}
			body = server.IngestRequest{Answers: answers}
		case op.batch != nil:
			path = "/v1/sessions/" + name + "/validations"
			vals := make([]server.ValidationJSON, len(op.batch))
			for j, v := range op.batch {
				vals[j] = server.ValidationJSON{Object: v.Object, Label: int(v.Label)}
			}
			body = server.SubmitRequest{Validations: vals}
		default:
			path = "/v1/sessions/" + name + "/validations"
			body = server.SubmitRequest{Validations: []server.ValidationJSON{{Object: op.object, Label: int(op.label)}}}
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ok := resp.StatusCode == http.StatusOK
		if op.expectError {
			if ok {
				t.Fatalf("op %d: expected a rejection", i)
			}
			continue
		}
		if !ok {
			t.Fatalf("op %d: status %d", i, resp.StatusCode)
		}
		acked[i] = true
	}
	return acked
}

// postJSON posts a JSON body to a node address and decodes the response
// when out is non-nil, returning the status.
func postJSON(t testing.TB, addr, path string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// routerPost posts through the router and returns status plus raw body.
func routerPost(t testing.TB, base, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// TestNodeStatsLoadsEveryCounter: Node.Stats copies every live fabric counter
// into its own field. Each int64 field of the live counters gets a distinct
// value; Stats must return each value in the same field, except the gauges,
// which it computes from the ring, the manager and the follower instead.
func TestNodeStatsLoadsEveryCounter(t *testing.T) {
	manager, err := server.NewManager(server.ManagerConfig{ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(NodeConfig{Self: "10.0.0.1:7001", Peers: []string{"10.0.0.2:7001"}, Manager: manager, Server: server.New(manager)})
	if err != nil {
		t.Fatal(err)
	}
	gauges := map[string]int64{"Peers": 2, "SessionsOwned": 0, "FollowedSessions": 0, "ReplicationLagLSN": 0}
	live := reflect.ValueOf(&n.live).Elem()
	for i := 0; i < live.NumField(); i++ {
		if live.Field(i).Kind() == reflect.Int64 {
			live.Field(i).SetInt(int64(1000 + i))
		}
	}
	got := reflect.ValueOf(n.Stats())
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).Kind() != reflect.Int64 {
			continue
		}
		name := got.Type().Field(i).Name
		want, gauge := gauges[name]
		if !gauge {
			want = int64(1000 + i)
		}
		if v := got.Field(i).Int(); v != want {
			t.Errorf("Stats().%s = %d, want %d", name, v, want)
		}
	}
	if s := n.Stats().Self; s != "10.0.0.1:7001" {
		t.Errorf("Stats().Self = %q", s)
	}
}
