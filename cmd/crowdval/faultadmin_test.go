package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"crowdval/internal/fault"
	"crowdval/internal/server"
)

// TestFaultAdminRefusals: the fault admin endpoint refuses malformed JSON, a
// bad rule and an over-cap body like every other endpoint — a JSON
// ErrorResponse coded ErrBadRequest, 413 for the body over its 1 MiB cap —
// and arms nothing; a good rule is armed.
func TestFaultAdminRefusals(t *testing.T) {
	in := fault.NewInjector()
	srv := httptest.NewServer(withFaultAdmin(http.NotFoundHandler(), in))
	defer srv.Close()
	post := func(body io.Reader) *http.Response {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/internal/v1/faults", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	overCap := io.MultiReader(strings.NewReader(`{"rules":[{"op":"sync","match":"`), strings.NewReader(strings.Repeat("x", 1<<20)))
	for _, row := range []struct {
		what   string
		body   io.Reader
		status int
	}{
		{"bad JSON", strings.NewReader(`{"rules":`), http.StatusBadRequest},
		{"unknown op", strings.NewReader(`{"rules":[{"op":"chmod","err":"eio"}]}`), http.StatusBadRequest},
		{"rule without an effect", strings.NewReader(`{"rules":[{"op":"sync"}]}`), http.StatusBadRequest},
		{"over-cap body", overCap, http.StatusRequestEntityTooLarge},
	} {
		t.Run(row.what, func(t *testing.T) {
			resp := post(row.body)
			defer resp.Body.Close()
			if resp.StatusCode != row.status {
				t.Errorf("status %d, want %d", resp.StatusCode, row.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			var body server.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("body is not an ErrorResponse: %v", err)
			}
			if body.Code != "ErrBadRequest" || body.Error == "" {
				t.Errorf("body %+v, want code ErrBadRequest and a message", body)
			}
		})
	}

	missing := filepath.Join(t.TempDir(), "missing")
	if err := in.Rename(missing, missing+".2"); errors.Is(err, fault.ErrIO) {
		t.Fatal("a refused request armed a fault")
	}
	resp := post(strings.NewReader(`{"rules":[{"op":"rename","err":"eio","count":1}]}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arming a good rule: status %d", resp.StatusCode)
	}
	if err := in.Rename(missing, missing+".2"); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("the armed rename fault did not fire: %v", err)
	}
}
