package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"crowdval/internal/cverr"
	"crowdval/internal/fault"
)

// These tests drive the degraded read-only mode end to end with injected
// disk faults: a durability failure must reject mutations with ErrDegraded
// (HTTP 503 + Retry-After) while reads keep serving, and clearing the fault
// must heal the session back to full service without a restart — with the
// healed state byte-equal to a serial replay of exactly the acknowledged ops.

// faultManagerConfig is walManagerConfig plus a fault injector.
func faultManagerConfig(t testing.TB, walDir string, ckptEvery int, in *fault.Injector) ManagerConfig {
	t.Helper()
	cfg := walManagerConfig(t, walDir, ckptEvery)
	cfg.FaultInjector = in
	return cfg
}

// TestDegradedReadOnlyAndProbeHeal: an fsync fault degrades the session to
// read-only (mutations carry ErrDegraded, reads serve the pre-fault state),
// the probe loop keeps it degraded while the fault persists, and heals it —
// accepting mutations again — once the fault clears. Recovery from the healed
// on-disk state must be byte-equal to the live session.
func TestDegradedReadOnlyAndProbeHeal(t *testing.T) {
	d := testCrowd(t, 16, 5, 101)
	extra := testCrowd(t, 16, 3, 103)
	walDir := t.TempDir()
	in := fault.NewInjector()
	m, err := NewManager(faultManagerConfig(t, walDir, -1, in))
	if err != nil {
		t.Fatal(err)
	}
	const name = "wounded"
	ctx := context.Background()
	if err := m.Create(ctx, name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	runScript(t, m, name, walScript(d, extra), true)
	want := managerSnapshot(t, m, name)

	// Every fsync in the WAL directory now fails — session logs and the
	// health probe alike.
	in.Arm(fault.Rule{Op: fault.OpSync, Err: fault.ErrIO})

	_, err = m.Submit(ctx, name, 10, d.Truth[10])
	if !errors.Is(err, cverr.ErrDegraded) {
		t.Fatalf("mutation on a failing disk: %v, want ErrDegraded", err)
	}
	if status := statusFor(err); status != http.StatusServiceUnavailable {
		t.Fatalf("ErrDegraded maps to %d, want 503", status)
	}
	// Already degraded: the rejection comes from the state check now, and
	// must carry the same sentinel.
	if _, err := m.Submit(ctx, name, 11, d.Truth[11]); !errors.Is(err, cverr.ErrDegraded) {
		t.Fatalf("mutation on a degraded session: %v, want ErrDegraded", err)
	}

	// Reads keep serving the pre-fault state.
	if got := managerSnapshot(t, m, name); !bytes.Equal(got, want) {
		t.Fatal("degraded session serves a different state than before the fault")
	}
	stats := m.Stats()
	if stats.WALDegradedSessions != 1 || stats.DegradeEvents != 1 {
		t.Fatalf("degraded gauges: %d sessions / %d events, want 1/1", stats.WALDegradedSessions, stats.DegradeEvents)
	}
	if h := m.Health(); h.State != "degraded" || h.DegradedSessions != 1 {
		t.Fatalf("Health() = %+v, want degraded/1", h)
	}

	// While the disk still fails, the probe must fail and hold the session
	// degraded — healing against a broken disk would lose the next mutation.
	if healed, err := m.ProbeOnce(ctx); err == nil || healed != 0 {
		t.Fatalf("probe on a failing disk healed %d sessions (err %v), want 0 and an error", healed, err)
	}
	if got := m.Stats().ProbeFailures; got != 1 {
		t.Fatalf("ProbeFailures = %d, want 1", got)
	}

	// The disk recovers: one probe pass heals the session without a restart.
	in.Clear()
	healed, err := m.ProbeOnce(ctx)
	if err != nil || healed != 1 {
		t.Fatalf("probe after clearing the fault: healed %d, err %v; want 1, nil", healed, err)
	}
	stats = m.Stats()
	if stats.WALDegradedSessions != 0 || stats.WALHeals != 1 {
		t.Fatalf("post-heal gauges: %d degraded / %d heals, want 0/1", stats.WALDegradedSessions, stats.WALHeals)
	}
	if h := m.Health(); h.State != "healthy" {
		t.Fatalf("Health() after heal = %+v, want healthy", h)
	}

	// Mutations flow again, and the on-disk state recovers byte-for-byte.
	if _, err := m.Submit(ctx, name, 10, d.Truth[10]); err != nil {
		t.Fatalf("mutation after heal: %v", err)
	}
	want = managerSnapshot(t, m, name)
	m2, report := recoverInto(t, walDir, -1)
	if len(report) != 1 || report[0].Err != nil {
		t.Fatalf("recovery report: %+v", report)
	}
	if got := managerSnapshot(t, m2, name); !bytes.Equal(got, want) {
		t.Fatal("recovery after heal diverged from the live state")
	}
}

// TestENOSPCReclaimWithoutDegrading: a full disk on append triggers the
// checkpoint-and-truncate reclaim and a single retry — the mutation is
// acknowledged, the session never degrades, and recovery reproduces the
// state exactly.
func TestENOSPCReclaimWithoutDegrading(t *testing.T) {
	d := testCrowd(t, 16, 5, 107)
	extra := testCrowd(t, 16, 3, 109)
	walDir := t.TempDir()
	in := fault.NewInjector()
	m, err := NewManager(faultManagerConfig(t, walDir, -1, in))
	if err != nil {
		t.Fatal(err)
	}
	const name = "full-disk"
	ctx := context.Background()
	if err := m.Create(ctx, name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	ops := walScript(d, extra)
	runScript(t, m, name, ops[:4], true)

	// Exactly one append to the live log reports ENOSPC. The reclaim's own
	// writes (checkpoint tmp, log rewrite) run after the rule is exhausted.
	in.Arm(fault.Rule{Op: fault.OpWrite, Match: name + ".wal", Count: 1, Err: fault.ErrNoSpace})

	if _, err := m.Submit(ctx, name, 10, d.Truth[10]); err != nil {
		t.Fatalf("mutation on a reclaimable full disk: %v, want success after reclaim", err)
	}
	stats := m.Stats()
	if stats.ENOSPCReclaims != 1 {
		t.Fatalf("ENOSPCReclaims = %d, want 1", stats.ENOSPCReclaims)
	}
	if stats.WALDegradedSessions != 0 || stats.DegradeEvents != 0 {
		t.Fatalf("ENOSPC reclaim degraded the session: %+v", stats)
	}

	runScript(t, m, name, ops[4:], true)
	want := managerSnapshot(t, m, name)
	m2, report := recoverInto(t, walDir, -1)
	if len(report) != 1 || report[0].Err != nil {
		t.Fatalf("recovery report: %+v", report)
	}
	if got := managerSnapshot(t, m2, name); !bytes.Equal(got, want) {
		t.Fatal("recovery after an ENOSPC reclaim diverged from the live state")
	}
}

// TestRotationFaultMatrix injects a fault — both EIO and ENOSPC — at every
// step of the checkpoint rotation sequence (checkpoint tmp write/fsync, the
// two checkpoint renames, the log-rewrite open/write/fsync, the log swap
// rename, and the post-swap reopen) and asserts the rotation is atomic or
// degrades: the session is either still fully healthy (the rotation had no
// effect and is retried at the next interval) or degraded-and-healable; the
// log is never installed shortened, so recovery always lands byte-equal on
// the acknowledged state.
func TestRotationFaultMatrix(t *testing.T) {
	d := testCrowd(t, 16, 5, 113)
	extra := testCrowd(t, 16, 3, 127)
	const name = "rotor"

	points := []struct {
		step string
		rule fault.Rule
		// wantDegraded: the fault lands after the point of no return (the
		// live log's handle is gone), so the session must degrade and heal.
		// Otherwise the rotation must fail cleanly with the session healthy.
		wantDegraded bool
	}{
		{step: "ckpt-tmp-write", rule: fault.Rule{Op: fault.OpWrite, Match: ".ckpt.tmp", Count: 1}},
		{step: "ckpt-tmp-fsync", rule: fault.Rule{Op: fault.OpSync, Match: ".ckpt.tmp", Count: 1}},
		{step: "demote-rename", rule: fault.Rule{Op: fault.OpRename, Match: ".ckpt.prev", Count: 1}},
		{step: "promote-rename", rule: fault.Rule{Op: fault.OpRename, Match: ".ckpt.tmp", Count: 1}},
		{step: "rewrite-open", rule: fault.Rule{Op: fault.OpOpen, Match: ".wal.tmp", Count: 1}},
		{step: "rewrite-write", rule: fault.Rule{Op: fault.OpWrite, Match: ".wal.tmp", Count: 1}},
		{step: "rewrite-fsync", rule: fault.Rule{Op: fault.OpSync, Match: ".wal.tmp", Count: 1}},
		{step: "swap-rename", rule: fault.Rule{Op: fault.OpRename, Match: ".wal.tmp", Count: 1}},
		// The first .wal open in a rotation is the rewrite tmp (skipped); the
		// second is the post-swap reopen of the live log.
		{step: "reopen", rule: fault.Rule{Op: fault.OpOpen, Match: ".wal", Skip: 1, Count: 1}, wantDegraded: true},
	}
	for _, p := range points {
		for _, ferr := range []error{fault.ErrIO, fault.ErrNoSpace} {
			t.Run(fmt.Sprintf("%s-%v", p.step, errors.Unwrap(ferr)), func(t *testing.T) {
				walDir := t.TempDir()
				in := fault.NewInjector()
				m, err := NewManager(faultManagerConfig(t, walDir, 3, in))
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				if err := m.Create(ctx, name, d.Answers.Clone(), sessionOpts()...); err != nil {
					t.Fatal(err)
				}
				ops := walScript(d, extra)
				runScript(t, m, name, ops[:2], true)

				rule := p.rule
				rule.Err = ferr
				in.Arm(rule)
				// The third mutation trips the rotation, which hits the fault.
				// The mutation itself was logged and applied before rotation
				// starts, so it is acknowledged either way.
				if _, err := m.Submit(ctx, name, 10, d.Truth[10]); err != nil {
					t.Fatalf("mutation tripping the faulty rotation: %v", err)
				}
				if got := in.Injected(); got == 0 {
					t.Fatal("the armed rotation fault never fired")
				}
				if got := m.Stats().CheckpointFailures; got != 1 {
					t.Fatalf("CheckpointFailures = %d, want 1", got)
				}

				stats := m.Stats()
				if p.wantDegraded {
					if stats.WALDegradedSessions != 1 {
						t.Fatalf("post-swap fault left the session healthy: %+v", stats)
					}
					// Degraded is read-only until the probe loop heals it.
					if _, err := m.Submit(ctx, name, 11, d.Truth[11]); !errors.Is(err, cverr.ErrDegraded) {
						t.Fatalf("degraded rotation victim accepted a mutation: %v", err)
					}
					in.Clear()
					if healed, err := m.ProbeOnce(ctx); err != nil || healed != 1 {
						t.Fatalf("heal after rotation fault: healed %d, err %v", healed, err)
					}
				} else {
					if stats.WALDegradedSessions != 0 || stats.WALFailStopSessions != 0 {
						t.Fatalf("pre-swap rotation fault was not atomic: %+v", stats)
					}
				}

				// Full service from here: the rest of the script lands, and a
				// crash-recovery reproduces the acknowledged state exactly —
				// proving no rotation step installed a shortened log.
				runScript(t, m, name, ops[3:], true)
				want := managerSnapshot(t, m, name)
				m2, report := recoverInto(t, walDir, 3)
				if len(report) != 1 || report[0].Err != nil {
					t.Fatalf("recovery report: %+v", report)
				}
				if got := managerSnapshot(t, m2, name); !bytes.Equal(got, want) {
					t.Fatal("recovery after a rotation fault diverged from the live state")
				}
			})
		}
	}
}

// TestDegradedHTTPSurface proves the degraded mode at the HTTP boundary:
// mutations answer 503 with a Retry-After header and the ErrDegraded code,
// reads answer 200, /readyz stays 200 but reports the health detail, the
// Prometheus endpoint carries the gauge — and after the fault clears and the
// probe heals, mutations answer 200 again. The live demonstration the issue
// asks for, minus the separate process.
func TestDegradedHTTPSurface(t *testing.T) {
	d := testCrowd(t, 16, 5, 131)
	walDir := t.TempDir()
	in := fault.NewInjector()
	m, err := NewManager(faultManagerConfig(t, walDir, -1, in))
	if err != nil {
		t.Fatal(err)
	}
	api := New(m)
	api.SetReady(true)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)

	const name = "web"
	ctx := context.Background()
	if err := m.Create(ctx, name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}

	submit := func(object int) *http.Response {
		t.Helper()
		body, _ := json.Marshal(SubmitRequest{Validations: []ValidationJSON{{Object: object, Label: int(d.Truth[object])}}})
		resp, err := http.Post(srv.URL+"/v1/sessions/"+name+"/validations", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		_, _ = io.Copy(&sb, resp.Body)
		resp.Body.Close()
		return resp, sb.String()
	}

	if resp := submit(0); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy submit: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	in.Arm(fault.Rule{Op: fault.OpSync, Err: fault.ErrIO})

	resp := submit(1)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded submit: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("degraded 503 carries no Retry-After header")
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if er.Code != "ErrDegraded" {
		t.Fatalf("degraded 503 code %q, want ErrDegraded", er.Code)
	}

	// Reads still answer 200 on the degraded session.
	for _, path := range []string{
		"/v1/sessions/" + name + "/result",
		"/v1/sessions/" + name + "/snapshot",
		"/v1/sessions/" + name + "/next",
		"/v1/metrics",
	} {
		if resp, _ := get(path); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s on a degraded node: status %d, want 200", path, resp.StatusCode)
		}
	}

	// /readyz stays 200 — the node serves reads — but reports the detail.
	readyResp, readyBody := get("/readyz")
	if readyResp.StatusCode != http.StatusOK {
		t.Fatalf("degraded /readyz: status %d, want 200", readyResp.StatusCode)
	}
	var ready ReadyResponse
	if err := json.Unmarshal([]byte(readyBody), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Health != "degraded" || ready.DegradedSessions != 1 {
		t.Fatalf("degraded /readyz body: %+v", ready)
	}
	if _, prom := get("/metrics"); !strings.Contains(prom, "crowdval_wal_degraded_sessions 1") {
		t.Fatalf("/metrics does not show the degraded gauge:\n%s", prom)
	}

	// Clear the fault, heal, and the same mutation goes through.
	in.Clear()
	if healed, err := m.ProbeOnce(ctx); err != nil || healed != 1 {
		t.Fatalf("heal: %d, %v", healed, err)
	}
	if resp := submit(1); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-heal submit: status %d, want 200", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if _, readyBody := get("/readyz"); !strings.Contains(readyBody, `"health":"healthy"`) {
		t.Fatalf("post-heal /readyz body: %s", readyBody)
	}
}

// TestDeleteDegradedSessionReleasesGauge: deleting a degraded session must
// release its health gauge. Otherwise the node reports degraded forever and
// every probe tick tests the disk on behalf of a session that is gone.
func TestDeleteDegradedSessionReleasesGauge(t *testing.T) {
	d := testCrowd(t, 16, 5, 131)
	in := fault.NewInjector()
	m, err := NewManager(faultManagerConfig(t, t.TempDir(), -1, in))
	if err != nil {
		t.Fatal(err)
	}
	const name = "doomed"
	ctx := context.Background()
	if err := m.Create(ctx, name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	in.Arm(fault.Rule{Op: fault.OpSync, Err: fault.ErrIO})
	if _, err := m.Submit(ctx, name, 0, d.Truth[0]); !errors.Is(err, cverr.ErrDegraded) {
		t.Fatalf("mutation on a failing disk: %v, want ErrDegraded", err)
	}
	if got := m.Stats().WALDegradedSessions; got != 1 {
		t.Fatalf("WALDegradedSessions = %d before Delete, want 1", got)
	}
	if err := m.Delete(name); err != nil {
		t.Fatal(err)
	}
	in.Clear()
	if st := m.Stats(); st.WALDegradedSessions != 0 || st.WALFailStopSessions != 0 {
		t.Fatalf("after Delete: %d degraded / %d fail-stop sessions, want 0/0", st.WALDegradedSessions, st.WALFailStopSessions)
	}
	if h := m.Health(); h.State != "healthy" {
		t.Fatalf("Health() after deleting the only degraded session = %+v, want healthy", h)
	}
	// With nothing degraded the probe loop has nothing to do: it must not
	// touch the disk (an armed fault would otherwise count a probe failure).
	in.Arm(fault.Rule{Op: fault.OpSync, Err: fault.ErrIO})
	if healed, err := m.ProbeOnce(ctx); healed != 0 || err != nil {
		t.Fatalf("ProbeOnce after Delete = %d, %v; want 0, nil", healed, err)
	}
	if got := m.Stats().ProbeFailures; got != 0 {
		t.Fatalf("ProbeFailures = %d, want 0: the probe ran for a deleted session", got)
	}
}

// TestDeleteFailStoppedSessionReleasesGauge is the fail-stop counterpart: a
// rotation that finds a corrupt durable record fails the session stop, and
// deleting it must release the fail-stop gauge.
func TestDeleteFailStoppedSessionReleasesGauge(t *testing.T) {
	d := testCrowd(t, 16, 5, 71)
	extra := testCrowd(t, 16, 3, 73)
	m, err := NewManager(walManagerConfig(t, t.TempDir(), 5))
	if err != nil {
		t.Fatal(err)
	}
	const name = "stopped"
	if err := m.Create(context.Background(), name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	ops := walScript(d, extra)
	runScript(t, m, name, ops[:3], true)
	// Corrupt the create record; the checkpoint the 5th op trips then fails
	// the session stop (see TestRotationFailsStopOnCorruptLog).
	f, err := os.OpenFile(m.walPath(name), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xAB}, 16+8+5); err != nil {
		t.Fatal(err)
	}
	f.Close()
	runScript(t, m, name, ops[3:5], true)
	if h := m.Health(); h.State != "failstop" || h.FailStopSessions != 1 {
		t.Fatalf("Health() after the failed rotation = %+v, want failstop/1", h)
	}
	if err := m.Delete(name); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.WALDegradedSessions != 0 || st.WALFailStopSessions != 0 {
		t.Fatalf("after Delete: %d degraded / %d fail-stop sessions, want 0/0", st.WALDegradedSessions, st.WALFailStopSessions)
	}
	if h := m.Health(); h.State != "healthy" {
		t.Fatalf("Health() after deleting the only fail-stopped session = %+v, want healthy", h)
	}
}
