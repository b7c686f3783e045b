package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"crowdval"
	"crowdval/internal/snapshot"
)

// TestCorruptedParkFileErrBadSnapshotOverHTTP: a parked session whose park
// file was damaged on disk must surface ErrBadSnapshot — mapped to a 400
// with the stable code — when the next touch tries to resume it, not a 500
// or a panic.
func TestCorruptedParkFileErrBadSnapshotOverHTTP(t *testing.T) {
	manager, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c := &client{t: t, base: serveManager(t, manager), http: http.DefaultClient}

	d := testCrowd(t, 16, 5, 2)
	ctx := context.Background()
	if err := manager.Create(ctx, "victim", d.Answers.Clone(), crowdval.WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	// A second session over the 1-byte budget parks the first.
	if err := manager.Create(ctx, "filler", d.Answers.Clone(), crowdval.WithSeed(2)); err != nil {
		t.Fatal(err)
	}
	parkPath := manager.parkPath("victim")
	waitFor(t, func() bool { _, err := os.Stat(parkPath); return err == nil })

	if err := os.WriteFile(parkPath, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	status, errResp := c.do("GET", "/v1/sessions/victim/result", nil, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("corrupted park file produced status %d (%+v), want 400", status, errResp)
	}
	if errResp == nil || errResp.Code != "ErrBadSnapshot" {
		t.Fatalf("error code = %+v, want ErrBadSnapshot", errResp)
	}

	// The session is wedged but the manager is not: it still lists, and
	// deleting it cleans up.
	if status, errResp := c.do("DELETE", "/v1/sessions/victim", nil, nil); errResp != nil {
		t.Fatalf("deleting the wedged session: status %d %+v", status, errResp)
	}
	if _, err := os.Stat(parkPath); !os.IsNotExist(err) {
		t.Fatalf("park file survived the delete: %v", err)
	}
}

// TestDamagedParkFileRefused: one flipped bit inside the assignment or the
// confusion floats of a park file leaves a well-formed snapshot that would
// resume with silently altered state; the park file's checksum catches it.
// Manager.Snapshot refuses to hand out the damaged bytes, the next touch
// answers 400 ErrBadSnapshot, and the session is not resumed.
func TestDamagedParkFileRefused(t *testing.T) {
	for _, region := range []string{"assignment", "confusions"} {
		t.Run(region, func(t *testing.T) {
			manager, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			c := &client{t: t, base: serveManager(t, manager), http: http.DefaultClient}
			d := testCrowd(t, 16, 5, 2)
			ctx := context.Background()
			if err := manager.Create(ctx, "victim", d.Answers.Clone(), crowdval.WithSeed(1)); err != nil {
				t.Fatal(err)
			}
			if err := manager.Create(ctx, "filler", d.Answers.Clone(), crowdval.WithSeed(2)); err != nil {
				t.Fatal(err)
			}
			path := manager.parkPath("victim")
			waitFor(t, func() bool { _, err := os.Stat(path); return err == nil })

			// Locate the region's floats in the park file by their encoding.
			snap, err := manager.Snapshot(ctx, "victim")
			if err != nil {
				t.Fatal(err)
			}
			st, err := snapshot.Decode(snap)
			if err != nil {
				t.Fatal(err)
			}
			floats := st.Assignment
			if region == "confusions" {
				floats = st.Confusions
			}
			var encoded []byte
			for _, v := range floats {
				encoded = binary.LittleEndian.AppendUint64(encoded, math.Float64bits(v))
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			at := bytes.Index(raw, encoded)
			if at < 0 {
				t.Fatalf("the %s floats are not in the park file", region)
			}
			// The lowest mantissa bit of a middle float.
			raw[at+8*(len(floats)/2)] ^= 0x01
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			resumes := manager.Stats().Resumes
			if data, err := manager.Snapshot(ctx, "victim"); !errors.Is(err, crowdval.ErrBadSnapshot) {
				t.Fatalf("snapshot of the damaged park file = %d bytes, %v; want ErrBadSnapshot", len(data), err)
			}
			status, errResp := c.do("GET", "/v1/sessions/victim/result", nil, nil)
			if status != http.StatusBadRequest || errResp == nil || errResp.Code != "ErrBadSnapshot" {
				t.Fatalf("touching the damaged session: status %d, %+v; want 400 ErrBadSnapshot", status, errResp)
			}
			if st := manager.Stats(); st.Resumes != resumes || st.Parked != 1 {
				t.Fatalf("the damaged session was resumed: %d -> %d resumes, %d parked", resumes, st.Resumes, st.Parked)
			}
		})
	}
}

// serveManager exposes an existing manager over a test HTTP server (unlike
// newTestServer, which builds its own manager).
func serveManager(t testing.TB, m *Manager) string {
	t.Helper()
	srv := httptest.NewServer(New(m))
	t.Cleanup(srv.Close)
	return srv.URL
}

// waitFor polls a condition with a deadline — used where the asserted state
// is produced by the post-operation parking step, which runs after the
// triggering call returns.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within the deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvictionRacesDelete hammers the window between a session being picked
// as an eviction victim and a concurrent Delete: whatever interleaving the
// scheduler produces, the deleted session must end up gone, its park file
// must not survive, and the manager's accounting must stay consistent. Run
// with -race in CI.
func TestEvictionRacesDelete(t *testing.T) {
	manager, err := NewManager(ManagerConfig{MemoryBudget: 1, ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d := testCrowd(t, 12, 4, 3)
	if err := manager.Create(ctx, "hot", d.Answers.Clone(), crowdval.WithSeed(1)); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("victim-%d", i)
		if err := manager.Create(ctx, name, d.Answers.Clone(), crowdval.WithSeed(int64(10+i))); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Touching the hot session re-accounts it and selects the cold
			// victim for parking.
			if _, err := manager.AddAnswers(ctx, "hot", []crowdval.Answer{{Object: i % 12, Worker: 1, Label: 1}}); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := manager.Delete(name); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()

		if err := manager.Delete(name); !errors.Is(err, crowdval.ErrSessionNotFound) {
			t.Fatalf("iteration %d: second delete = %v, want ErrSessionNotFound", i, err)
		}
		if _, err := os.Stat(manager.parkPath(name)); !os.IsNotExist(err) {
			t.Fatalf("iteration %d: park file of the deleted session survived", i)
		}
	}

	stats := manager.Stats()
	if stats.Sessions != 1 {
		t.Fatalf("sessions = %d, want only the hot one; stats %+v", stats.Sessions, stats)
	}
	if stats.Parked < 0 || stats.Resident < 0 || stats.Resident+stats.Parked != stats.Sessions {
		t.Fatalf("inconsistent accounting after the race: %+v", stats)
	}
}

// TestMetricsReportCoalescedIngest drives the coalescing path
// deterministically: a blocking read holds the session lock while several
// ingest requests queue up, so releasing the lock makes exactly one merged
// batch. The counters must attribute one executed batch, the rest coalesced,
// and the metrics endpoint must expose them over HTTP.
func TestMetricsReportCoalescedIngest(t *testing.T) {
	c, manager := newTestServer(t, 0)
	ctx := context.Background()
	d := testCrowd(t, 20, 6, 5)
	if err := manager.Create(ctx, "s", d.Answers.Clone(),
		crowdval.WithStrategy(crowdval.StrategyBaseline), crowdval.WithDeltaIngest()); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	viewing := make(chan struct{})
	viewDone := make(chan error, 1)
	go func() {
		viewDone <- manager.View(ctx, "s", func(*crowdval.Session) error {
			close(viewing)
			<-release
			return nil
		})
	}()
	<-viewing

	const requests = 4
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := manager.AddAnswers(ctx, "s", []crowdval.Answer{{Object: i, Worker: 0, Label: 1}}); err != nil {
				t.Error(err)
			}
		}(i)
	}

	// Wait until every request has enqueued its ticket (they then block on
	// the write lock the view is holding read-side).
	manager.mu.Lock()
	e := manager.sessions["s"]
	manager.mu.Unlock()
	waitFor(t, func() bool {
		e.ingestMu.Lock()
		defer e.ingestMu.Unlock()
		return len(e.ingestQueue) == requests
	})
	close(release)
	wg.Wait()
	if err := <-viewDone; err != nil {
		t.Fatal(err)
	}

	stats := manager.Stats()
	if stats.IngestBatches != 1 {
		t.Fatalf("IngestBatches = %d, want 1 merged batch; stats %+v", stats.IngestBatches, stats)
	}
	if stats.CoalescedIngests != requests-1 {
		t.Fatalf("CoalescedIngests = %d, want %d; stats %+v", stats.CoalescedIngests, requests-1, stats)
	}
	if stats.IngestedAnswers != requests {
		t.Fatalf("IngestedAnswers = %d, want %d", stats.IngestedAnswers, requests)
	}

	// The same counters over the HTTP metrics endpoint.
	var viaHTTP Stats
	c.must("GET", "/v1/metrics", nil, &viaHTTP)
	if viaHTTP.IngestBatches != 1 || viaHTTP.CoalescedIngests != requests-1 {
		t.Fatalf("metrics endpoint reports %+v", viaHTTP)
	}
}

// TestFullPathSessionsDoNotCoalesce: exact sessions (WithExact) keep
// the bit-for-bit serial-replay contract, so queued ingest requests must be
// applied one at a time in arrival order, never merged.
func TestFullPathSessionsDoNotCoalesce(t *testing.T) {
	_, manager := newTestServer(t, 0)
	ctx := context.Background()
	d := testCrowd(t, 20, 6, 9)
	if err := manager.Create(ctx, "s", d.Answers.Clone(), crowdval.WithStrategy(crowdval.StrategyBaseline), crowdval.WithExact()); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	viewing := make(chan struct{})
	viewDone := make(chan error, 1)
	go func() {
		viewDone <- manager.View(ctx, "s", func(*crowdval.Session) error {
			close(viewing)
			<-release
			return nil
		})
	}()
	<-viewing

	const requests = 3
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := manager.AddAnswers(ctx, "s", []crowdval.Answer{{Object: i, Worker: 0, Label: 1}}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	manager.mu.Lock()
	e := manager.sessions["s"]
	manager.mu.Unlock()
	waitFor(t, func() bool {
		e.ingestMu.Lock()
		defer e.ingestMu.Unlock()
		return len(e.ingestQueue) == requests
	})
	close(release)
	wg.Wait()
	if err := <-viewDone; err != nil {
		t.Fatal(err)
	}

	stats := manager.Stats()
	if stats.IngestBatches != requests || stats.CoalescedIngests != 0 {
		t.Fatalf("full-path session coalesced: %+v", stats)
	}
	if stats.IngestedAnswers != requests {
		t.Fatalf("IngestedAnswers = %d, want %d", stats.IngestedAnswers, requests)
	}
}

// TestCoalescedIngestFallbackAttributesErrors: when a merged batch is
// rejected because one request carried an invalid answer, the per-ticket
// fallback must land the error on exactly that request and still apply the
// valid ones.
func TestCoalescedIngestFallbackAttributesErrors(t *testing.T) {
	_, manager := newTestServer(t, 0)
	ctx := context.Background()
	d := testCrowd(t, 20, 6, 7)
	// Merging only happens for delta sessions; the fallback under test is
	// the merged batch being rejected.
	if err := manager.Create(ctx, "s", d.Answers.Clone(),
		crowdval.WithStrategy(crowdval.StrategyBaseline), crowdval.WithDeltaIngest()); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	viewing := make(chan struct{})
	viewDone := make(chan error, 1)
	go func() {
		viewDone <- manager.View(ctx, "s", func(*crowdval.Session) error {
			close(viewing)
			<-release
			return nil
		})
	}()
	<-viewing

	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			label := crowdval.Label(1)
			if i == 1 {
				label = crowdval.Label(99) // invalid: the task has 2 labels
			}
			_, errs[i] = manager.AddAnswers(ctx, "s", []crowdval.Answer{{Object: i, Worker: 0, Label: label}})
		}(i)
	}
	manager.mu.Lock()
	e := manager.sessions["s"]
	manager.mu.Unlock()
	waitFor(t, func() bool {
		e.ingestMu.Lock()
		defer e.ingestMu.Unlock()
		return len(e.ingestQueue) == 3
	})
	close(release)
	wg.Wait()
	if err := <-viewDone; err != nil {
		t.Fatal(err)
	}

	for i, err := range errs {
		if i == 1 {
			if !errors.Is(err, crowdval.ErrInvalidLabel) {
				t.Fatalf("bad request %d got %v, want ErrInvalidLabel", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("valid request %d failed: %v", i, err)
		}
	}
	stats := manager.Stats()
	if stats.IngestedAnswers != 2 {
		t.Fatalf("IngestedAnswers = %d, want the 2 valid ones", stats.IngestedAnswers)
	}
	if stats.CoalescedIngests != 0 {
		t.Fatalf("CoalescedIngests = %d after a per-ticket fallback, want 0", stats.CoalescedIngests)
	}
}
