package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"testing"
	"time"

	"crowdval"
	"crowdval/internal/cverr"
	"crowdval/internal/snapshot"
)

// TestHostileResumeLeavesServerResponsive: resume bodies whose header
// disagrees with their arrays — an object count of 1<<62, a worker count of
// 1<<61 the confusions do not cover, and a worker count of 1<<62 whose k·m²
// wraps to the empty confusion array's length — are refused with 400
// ErrBadSnapshot and leave nothing behind: GET /v1/next, DELETE of the name
// and a valid resume under it each answer within the client's deadline.
//
// The server runs on a plain http.Server, whose Close does not wait for
// in-flight handlers, so a handler wedged on a leaked reservation fails the
// test by the client's deadline instead of hanging its cleanup.
func TestHostileResumeLeavesServerResponsive(t *testing.T) {
	manager, err := NewManager(ManagerConfig{ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: New(manager), ErrorLog: log.New(io.Discard, "", 0)}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	client := &http.Client{Timeout: 2 * time.Second}
	call := func(method, path string, body []byte) (int, string, error) {
		req, err := http.NewRequest(method, "http://"+ln.Addr().String()+path, bytes.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		var errBody ErrorResponse
		json.NewDecoder(resp.Body).Decode(&errBody)
		return resp.StatusCode, errBody.Code, nil
	}

	s, err := crowdval.NewSession(testCrowd(t, 12, 5, 1).Answers, crowdval.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	valid, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*snapshot.State)) []byte {
		st, err := snapshot.Decode(valid)
		if err != nil {
			t.Fatal(err)
		}
		f(st)
		return snapshot.Encode(st)
	}
	for name, body := range map[string][]byte{
		"huge object count":     mutate(func(st *snapshot.State) { st.NumObjects = 1 << 62 }),
		"inconsistent lengths":  mutate(func(st *snapshot.State) { st.NumWorkers = 1 << 61 }),
		"overflowing k·m² size": mutate(func(st *snapshot.State) { st.NumWorkers, st.Confusions = 1<<62, nil }),
	} {
		t.Run(name, func(t *testing.T) {
			steps := []struct {
				method, path string
				body         []byte
				status       int
				code         string
			}{
				{"POST", "/v1/sessions/evil/resume", body, http.StatusBadRequest, "ErrBadSnapshot"},
				{"GET", "/v1/next", nil, http.StatusOK, ""},
				{"DELETE", "/v1/sessions/evil", nil, http.StatusNotFound, "ErrSessionNotFound"},
				{"POST", "/v1/sessions/evil/resume", valid, http.StatusCreated, ""},
				{"DELETE", "/v1/sessions/evil", nil, http.StatusNoContent, ""},
			}
			// Every step runs whatever the previous one answered, so a
			// wedged server shows as the probes' missed deadlines.
			for _, step := range steps {
				status, code, err := call(step.method, step.path, step.body)
				if err != nil {
					t.Errorf("%s %s: %v", step.method, step.path, err)
				} else if status != step.status || code != step.code {
					t.Errorf("%s %s: status %d %q, want %d %q", step.method, step.path, status, code, step.status, step.code)
				}
			}
		})
	}
}

// TestInstallReleasesNameAfterPanic: a build that panics inside install
// leaves neither the name reserved nor its entry locked.
func TestInstallReleasesNameAfterPanic(t *testing.T) {
	manager, err := NewManager(ManagerConfig{ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != "build panicked" {
				t.Fatalf("recovered %v, want the build's panic", r)
			}
		}()
		manager.install("boom", func() (*crowdval.Session, *sessionWAL, error) {
			panic("build panicked")
		})
	}()
	if manager.Has("boom") {
		t.Fatal("the name is still reserved")
	}
	done := make(chan error, 1)
	go func() { done <- manager.Delete("boom") }()
	select {
	case err := <-done:
		if !errors.Is(err, cverr.ErrSessionNotFound) {
			t.Fatalf("Delete = %v, want ErrSessionNotFound", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Delete blocked on the panicked build's entry")
	}
	d := testCrowd(t, 12, 5, 1)
	if err := manager.Create(context.Background(), "boom", d.Answers, crowdval.WithSeed(1)); err != nil {
		t.Fatalf("creating under the released name: %v", err)
	}
}
