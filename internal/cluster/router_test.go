package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdval/internal/server"
)

// scriptedTransport counts dial attempts per peer and either refuses every
// connection or serves a canned 200, switchable mid-test — the router-side
// view of a partition that heals.
type scriptedTransport struct {
	mu    sync.Mutex
	dials map[string]int
	up    bool
}

func (st *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st.mu.Lock()
	st.dials[req.URL.Host]++
	up := st.up
	st.mu.Unlock()
	if !up {
		return nil, fmt.Errorf("dial tcp %s: connection refused", req.URL.Host)
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader("{}\n")),
	}, nil
}

func (st *scriptedTransport) totalDials() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, c := range st.dials {
		n += c
	}
	return n
}

func (st *scriptedTransport) setUp(up bool) {
	st.mu.Lock()
	st.up = up
	st.mu.Unlock()
}

func proxyOnce(t *testing.T, rt *Router) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/foo/result", nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec.Code
}

// TestRouterNoThunderingHerdWhenAllQuarantined is the regression test for the
// old clearDown behavior: with every peer quarantined, a request used to wipe
// the whole down-map and retry the full preference order, so each incoming
// request turned into a reconnection storm against peers that were still
// down. Now a fully-quarantined request releases exactly one peer — the one
// whose retry deadline was nearest — and everyone else keeps waiting out
// their staggered backoff.
func TestRouterNoThunderingHerdWhenAllQuarantined(t *testing.T) {
	st := &scriptedTransport{dials: make(map[string]int)}
	rt, err := NewRouter(RouterConfig{
		Peers:   []string{"p1:1", "p2:1", "p3:1"},
		Client:  &http.Client{Transport: st},
		DownTTL: time.Hour, // nothing expires on its own during the test
	})
	if err != nil {
		t.Fatal(err)
	}

	// First request: every peer is tried once, every dial fails, 503.
	if code := proxyOnce(t, rt); code != http.StatusServiceUnavailable {
		t.Fatalf("all-down request: got %d, want 503", code)
	}
	if got := st.totalDials(); got != 3 {
		t.Fatalf("first request dialed %d times, want 3", got)
	}

	// Second request: everything is quarantined. Exactly ONE peer may be
	// probed — the herd would be 3 more dials.
	if code := proxyOnce(t, rt); code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined request: got %d, want 503", code)
	}
	if got := st.totalDials(); got != 4 {
		t.Fatalf("quarantined request dialed %d extra times, want exactly 1 (thundering herd regression)", got-3)
	}

	// The network heals. The next request again force-probes a single peer,
	// succeeds, and closes that peer's breaker.
	st.setUp(true)
	if code := proxyOnce(t, rt); code != http.StatusOK {
		t.Fatalf("healed request: got %d, want 200", code)
	}
	if got := st.totalDials(); got != 5 {
		t.Fatalf("healed request dialed %d extra times, want exactly 1", got-4)
	}

	// Steady state after recovery: the learned owner's breaker is closed, one
	// hop per request.
	if code := proxyOnce(t, rt); code != http.StatusOK {
		t.Fatalf("steady-state request: got %d, want 200", code)
	}
	if got := st.totalDials(); got != 6 {
		t.Fatalf("steady-state request dialed %d extra times, want exactly 1", got-5)
	}
}

// TestRouterBreakerHalfOpenAdmitsOneProbe checks the half-open contract: at
// the retry deadline exactly one caller is admitted as the probe while
// concurrent callers keep skipping the peer, and the probe's outcome closes
// or re-opens the breaker.
func TestRouterBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	rt, err := NewRouter(RouterConfig{
		Peers:   []string{"p1:1", "p2:1"},
		DownTTL: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.reportFailure("p1:1")
	if !rt.isDown("p1:1") {
		t.Fatal("freshly failed peer should be quarantined")
	}
	time.Sleep(10 * time.Millisecond) // past 1ms base + ≤25% jitter
	if rt.isDown("p1:1") {
		t.Fatal("past the deadline one caller must be admitted as probe")
	}
	if !rt.isDown("p1:1") {
		t.Fatal("second caller must be held out while the probe is in flight")
	}
	rt.reportSuccess("p1:1")
	if rt.isDown("p1:1") {
		t.Fatal("a successful probe must close the breaker")
	}
}

// TestRouterBreakerBackoffGrowsAndStaggers checks that consecutive failures
// widen the retry deadline exponentially (capped) and that distinct peers
// failing at the same instant get distinct deadlines.
func TestRouterBreakerBackoffGrowsAndStaggers(t *testing.T) {
	base := 100 * time.Millisecond
	rt, err := NewRouter(RouterConfig{
		Peers:   []string{"p1:1", "p2:1", "p3:1"},
		DownTTL: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadlineAfter := func(peer string, fails int) time.Duration {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		b := rt.breakers[peer]
		if b == nil || b.fails != fails {
			t.Fatalf("peer %s: breaker fails = %v, want %d", peer, b, fails)
		}
		return time.Until(b.retryAt)
	}
	rt.reportFailure("p1:1")
	d1 := deadlineAfter("p1:1", 1)
	rt.reportFailure("p1:1")
	d2 := deadlineAfter("p1:1", 2)
	if d2 < 2*d1-base/10 {
		t.Fatalf("second failure backoff %v did not double from %v", d2, d1)
	}
	for i := 0; i < 20; i++ {
		rt.reportFailure("p1:1")
	}
	ceiling := base << maxBackoffShift
	if d := deadlineAfter("p1:1", 22); d > ceiling+ceiling/4 {
		t.Fatalf("backoff %v exceeds the cap (%v plus ≤25%% jitter)", d, ceiling)
	}

	// Same-instant failures on different peers must not share a deadline:
	// the stagger comes from the deterministic per-peer jitter fraction.
	if peerJitter("p2:1") == peerJitter("p3:1") {
		t.Fatal("peers downed together must get staggered retry deadlines")
	}
}

// TestRouterGlobalNextBoundsK: the router's GET /v1/next refuses a ?k= the
// server would refuse — not an integer, above server.MaxNextK, below 1 — with
// the server's JSON 400 and without asking any node, and forwards a k the
// server accepts.
func TestRouterGlobalNextBoundsK(t *testing.T) {
	st := &scriptedTransport{dials: make(map[string]int), up: true}
	rt, err := NewRouter(RouterConfig{
		Peers:  []string{"p1:1", "p2:1"},
		Client: &http.Client{Transport: st},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{"5x", "1001", "0"} {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/next?k="+raw, nil))
		var body server.ErrorResponse
		if rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != "application/json" ||
			json.Unmarshal(rec.Body.Bytes(), &body) != nil || !strings.HasPrefix(body.Error, "invalid k") {
			t.Fatalf("k=%s: %d %q %q, want the server's JSON 400", raw, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
	}
	if n := st.totalDials(); n != 0 {
		t.Fatalf("refused requests reached the fabric %d times", n)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/next?k=%d", server.MaxNextK), nil))
	if rec.Code != http.StatusOK || st.totalDials() != 2 {
		t.Fatalf("k=%d: %d after %d dials, want 200 from both peers", server.MaxNextK, rec.Code, st.totalDials())
	}
}

// lazyBody yields n bytes without holding them and counts what was read.
type lazyBody struct{ n, read int64 }

func (b *lazyBody) Read(p []byte) (int, error) {
	if b.read >= b.n {
		return 0, io.EOF
	}
	k := min(int64(len(p)), b.n-b.read)
	for i := range p[:k] {
		p[i] = 'x'
	}
	b.read += k
	return int(k), nil
}

// TestRouterCapsBodies: a body one byte over server.DefaultMaxBodyBytes is
// refused by the router itself with 413 after reading at most one byte past
// the cap, and never forwarded.
func TestRouterCapsBodies(t *testing.T) {
	st := &scriptedTransport{dials: make(map[string]int), up: true}
	rt, err := NewRouter(RouterConfig{
		Peers:  []string{"p1:1"},
		Client: &http.Client{Transport: st},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := &lazyBody{n: server.DefaultMaxBodyBytes + 1}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/foo/answers", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap body: %d, want 413", rec.Code)
	}
	if body.read > server.DefaultMaxBodyBytes+1 {
		t.Fatalf("router read %d bytes, cap is %d", body.read, server.DefaultMaxBodyBytes)
	}
	if n := st.totalDials(); n != 0 {
		t.Fatalf("an over-cap body was forwarded %d times", n)
	}
}
