package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crowdval/internal/server"
)

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// overCapBody is a lazily generated body of n bytes that is valid JSON as far
// as it goes — a create request whose matrix never closes — so the only
// thing wrong with it is its size.
func overCapBody(n int64) io.Reader {
	return io.LimitReader(io.MultiReader(strings.NewReader(`{"name":"big","matrix":[[0`), spaces{}), n)
}

// startRefusalNode serves a one-node fabric member (it owns every name)
// whose public API caps bodies at maxBody bytes.
func startRefusalNode(t *testing.T, maxBody int64) (*Node, string) {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	addr := ts.Listener.Addr().String()
	manager, err := server.NewManager(server.ManagerConfig{ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	api := server.New(manager)
	api.MaxBodyBytes = maxBody
	api.SetReady(true)
	node, err := NewNode(NodeConfig{Self: addr, Peers: []string{addr}, Manager: manager, Server: api})
	if err != nil {
		t.Fatal(err)
	}
	ts.Config.Handler = node
	ts.Start()
	t.Cleanup(ts.Close)
	return node, ts.URL
}

// TestEveryRefusalIsCodedJSON is the contract of the HTTP error path: every
// refusal a node's public API, the router and a node's fabric endpoints
// write is a JSON ErrorResponse with the status its sentinel maps to and a
// non-empty code, and a 503 tells the client when to retry.
func TestEveryRefusalIsCodedJSON(t *testing.T) {
	const maxBody = 4 << 10
	_, base := startRefusalNode(t, maxBody)
	draining, drainingBase := startRefusalNode(t, maxBody)
	if err := draining.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// send runs one request against a base URL.
	send := func(base string) func(method, path string, body io.Reader) *http.Response {
		return func(method, path string, body io.Reader) *http.Response {
			t.Helper()
			req, err := http.NewRequest(method, base+path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
	}
	// route runs one request through a router none of whose peers is up.
	route := func(method, path string, body io.Reader) *http.Response {
		t.Helper()
		rt, err := NewRouter(RouterConfig{
			Peers:   []string{"p1:1", "p2:1"},
			Client:  &http.Client{Transport: &scriptedTransport{dials: make(map[string]int)}},
			DownTTL: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(method, path, body))
		return rec.Result()
	}
	node, drainingNode := send(base), send(drainingBase)
	str := strings.NewReader

	rows := []struct {
		what   string
		do     func(method, path string, body io.Reader) *http.Response
		method string
		path   string
		body   io.Reader
		status int
		code   string
	}{
		// The node's public API.
		{"bad JSON", node, "POST", "/v1/sessions", str(`{"name":`), 400, "ErrBadRequest"},
		{"unknown field", node, "POST", "/v1/sessions", str(`{"name":"a","bogus":1}`), 400, "ErrBadRequest"},
		{"create without a name", node, "POST", "/v1/sessions", str(`{"matrix":[[0,1],[1,0]]}`), 400, "ErrBadRequest"},
		{"bad timeout", node, "GET", "/v1/sessions/a/result?timeout=soon", nil, 400, "ErrBadRequest"},
		{"bad timeout on delete", node, "DELETE", "/v1/sessions/a?timeout=bogus", nil, 400, "ErrBadRequest"},
		{"bad k", node, "GET", "/v1/sessions/a/next?k=0", nil, 400, "ErrBadRequest"},
		{"budget of 0", node, "POST", "/v1/sessions/a/budget", str(`{"budget":0}`), 400, "ErrBadRequest"},
		{"empty submit", node, "POST", "/v1/sessions/a/validations", str(`{"validations":[]}`), 400, "ErrBadRequest"},
		{"over-cap create", node, "POST", "/v1/sessions", overCapBody(maxBody + 1), 413, "ErrBadRequest"},
		{"over-cap resume", node, "POST", "/v1/sessions/a/resume", overCapBody(maxBody + 1), 413, "ErrBadRequest"},

		// The router.
		{"unroutable create", route, "POST", "/v1/sessions", str(`{}`), 400, "ErrBadRequest"},
		{"over-cap routed body", route, "POST", "/v1/sessions/a/answers", overCapBody(server.DefaultMaxBodyBytes + 1), 413, "ErrBadRequest"},
		{"routed k=0", route, "GET", "/v1/next?k=0", nil, 400, "ErrBadRequest"},
		{"proxy with no node up", route, "GET", "/v1/sessions/a/result", nil, 503, "ErrUnavailable"},
		{"list with no node up", route, "GET", "/v1/sessions", nil, 503, "ErrUnavailable"},
		{"global next with no node up", route, "GET", "/v1/next", nil, 503, "ErrUnavailable"},

		// The node's fabric endpoints.
		{"malformed transfer", node, "POST", "/internal/v1/sessions/a/transfer", str("not a WAL"), 400, "ErrBadRequest"},
		{"transfer to a draining node", drainingNode, "POST", "/internal/v1/sessions/a/transfer", str(""), 503, "ErrUnavailable"},
		{"bad from", node, "GET", "/internal/v1/sessions/a/wal?from=-1", nil, 400, "ErrBadRequest"},
		{"unknown subscribe", node, "GET", "/internal/v1/sessions/a/wal", nil, 404, "ErrSessionNotFound"},
		{"malformed promote", node, "POST", "/internal/v1/promote", str(`{"name":`), 400, "ErrBadRequest"},
		{"promote without a name", node, "POST", "/internal/v1/promote", str(`{}`), 400, "ErrBadRequest"},
		{"promote of an unknown session", node, "POST", "/internal/v1/promote", str(`{"name":"a"}`), 404, "ErrSessionNotFound"},
	}
	for _, row := range rows {
		t.Run(row.what, func(t *testing.T) {
			resp := row.do(row.method, row.path, row.body)
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
			if body.Code != row.code || body.Error == "" {
				t.Errorf("body %+v, want code %s and a message", body, row.code)
			}
			if row.status == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
				t.Error("a 503 without Retry-After")
			}
		})
	}
}
