package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"crowdval"
	"crowdval/internal/cverr"
	"crowdval/internal/server"
)

// RouterConfig configures a routing tier instance.
type RouterConfig struct {
	// Peers is the fabric membership the router hashes session names onto.
	Peers []string
	// Client performs the proxied requests (http.DefaultClient if nil).
	Client *http.Client
	// DownTTL is the base of the per-peer retry backoff: after its first
	// connection failure a peer is skipped for DownTTL, and each consecutive
	// failure doubles the wait (capped, with a deterministic per-peer jitter
	// so deadlines stay staggered). Default 1s.
	DownTTL time.Duration
}

// Router proxies the public JSON API onto the fabric. Each request's
// session name is consistent-hashed to its ring owner; an HTTP 421 response
// redirects the request to the owner the responding node named (ownership
// moved via handoff or promotion), and a connection failure fails over to
// the next peer in the session's preference order. Learned owners are
// cached so the steady state is one hop.
type Router struct {
	ring    *Ring
	client  *http.Client
	downTTL time.Duration

	mu       sync.Mutex
	owners   map[string]string       // learned session -> owner
	breakers map[string]*peerBreaker // peer -> circuit breaker
}

// peerBreaker is one peer's circuit breaker. Closed (the zero value) lets
// requests through; a connection failure opens it, and requests skip the peer
// until its retry deadline. At the deadline the breaker goes half-open: it
// admits exactly one request as a probe — concurrent requests keep failing
// over instead of piling onto a peer that may still be down — and that
// probe's outcome either closes the breaker or re-opens it with a doubled
// backoff. Deadlines carry a deterministic per-peer jitter so peers downed
// together (a partition healing, a rack rebooting) come back staggered
// rather than as a reconnection herd.
type peerBreaker struct {
	fails   int       // consecutive connection failures
	open    bool      // quarantined: skip until retryAt
	probing bool      // half-open: one trial request is in flight
	retryAt time.Time // when open, the next probe admission
}

// maxBackoffShift caps the exponential backoff at 2^5 = 32 times the base
// DownTTL (~32s at the default): long enough to quiet a dead peer, short
// enough that a healed one is noticed promptly.
const maxBackoffShift = 5

// NewRouter builds a router over a static peer list.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ring, err := NewRing(cfg.Peers)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		ring:     ring,
		client:   cfg.Client,
		downTTL:  cfg.DownTTL,
		owners:   make(map[string]string),
		breakers: make(map[string]*peerBreaker),
	}
	if rt.client == nil {
		rt.client = http.DefaultClient
	}
	if rt.downTTL <= 0 {
		rt.downTTL = time.Second
	}
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz" || r.URL.Path == "/readyz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
		return
	case r.Method == http.MethodGet && r.URL.Path == "/v1/sessions":
		rt.handleList(w, r)
		return
	case r.Method == http.MethodGet && r.URL.Path == "/v1/next":
		rt.handleGlobalNext(w, r)
		return
	}
	// Bodies are buffered so a request can be retried against another peer;
	// they are capped like the server caps them.
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, server.DefaultMaxBodyBytes))
	if err != nil {
		server.WriteError(w, fmt.Errorf("router: reading request body: %w: %w", err, cverr.ErrBadRequest))
		return
	}
	name, ok := sessionName(r, body)
	if !ok {
		server.WriteError(w, fmt.Errorf("router: cannot route request: no session name: %w", cverr.ErrBadRequest))
		return
	}
	rt.proxy(w, r, name, body)
}

// sessionName extracts the routing key: the {name} path element of
// /v1/sessions/{name}/..., or the name field of a create body.
func sessionName(r *http.Request, body []byte) (string, bool) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" {
		var req struct {
			Name string `json:"name"`
		}
		if json.Unmarshal(body, &req) != nil || req.Name == "" {
			return "", false
		}
		return req.Name, true
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/sessions/")
	if !ok || rest == "" {
		return "", false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}

// proxy walks the session's candidate list: the cached owner first, then the
// ring preference order. A 421 inserts the named owner at the front of the
// remaining queue; a connection error quarantines the peer and moves on.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, name string, body []byte) {
	queue := rt.candidates(name)
	tried := make(map[string]bool, len(queue))
	var lastErr error
	skippedDown := false
	for attempt := 0; len(queue) > 0 && attempt < 2*len(rt.ring.peers)+2; attempt++ {
		target := queue[0]
		queue = queue[1:]
		if tried[target] {
			continue
		}
		if rt.isDown(target) {
			// Remember we skipped someone: if everyone else fails we retry
			// the quarantined peers once rather than giving up early.
			skippedDown = true
			continue
		}
		tried[target] = true
		resp, err := rt.forward(r, target, body)
		if err != nil {
			rt.reportFailure(target)
			lastErr = err
			continue
		}
		rt.reportSuccess(target)
		if resp.StatusCode == http.StatusMisdirectedRequest {
			owner := ownerFromResponse(resp)
			resp.Body.Close()
			if owner != "" {
				rt.learnOwner(name, owner)
				if !tried[owner] {
					queue = append([]string{owner}, queue...)
					continue
				}
			}
			lastErr = fmt.Errorf("router: %s redirected %q to %q", target, name, owner)
			continue
		}
		// Any definitive answer (success or a real API error) settles the
		// request; a success also confirms the responding peer as owner.
		if resp.StatusCode < 500 {
			rt.learnOwner(name, target)
		}
		copyResponse(w, resp)
		resp.Body.Close()
		return
	}
	if skippedDown && len(tried) == 0 {
		// Everything was quarantined. Release only the candidate whose retry
		// deadline is nearest — not the whole set — so total quarantine costs
		// one staggered probe instead of a thundering herd of reconnections
		// against peers that may all still be down.
		if rt.releaseEarliest(rt.candidates(name)) {
			rt.proxy(w, r, name, body)
			return
		}
	}
	msg := "router: no fabric node could serve the request"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	server.WriteError(w, fmt.Errorf("%s: %w", msg, cverr.ErrUnavailable))
}

// candidates returns the attempt order for a session: learned owner first,
// then every ring member in preference order.
func (rt *Router) candidates(name string) []string {
	prefs := rt.ring.Prefs(name)
	rt.mu.Lock()
	owner, ok := rt.owners[name]
	rt.mu.Unlock()
	if !ok {
		return prefs
	}
	out := make([]string, 0, len(prefs)+1)
	out = append(out, owner)
	return append(out, prefs...)
}

func (rt *Router) learnOwner(name, owner string) {
	rt.mu.Lock()
	rt.owners[name] = owner
	rt.mu.Unlock()
}

// isDown consults the peer's breaker. Past an open breaker's retry deadline
// it admits the caller as the single half-open probe, so "false" can mean
// "go ahead, and your outcome decides the breaker" — callers must follow a
// forward with reportSuccess or reportFailure.
func (rt *Router) isDown(peer string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b := rt.breakers[peer]
	if b == nil || !b.open {
		return false
	}
	if b.probing || time.Now().Before(b.retryAt) {
		return true
	}
	b.probing = true
	return false
}

// reportSuccess closes the peer's breaker: the connection worked, whatever
// the HTTP status said about the request itself.
func (rt *Router) reportSuccess(peer string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if b := rt.breakers[peer]; b != nil {
		b.fails = 0
		b.open = false
		b.probing = false
	}
}

// reportFailure opens the peer's breaker with an exponentially growing,
// per-peer-jittered retry deadline.
func (rt *Router) reportFailure(peer string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b := rt.breakers[peer]
	if b == nil {
		b = &peerBreaker{}
		rt.breakers[peer] = b
	}
	b.fails++
	b.open = true
	b.probing = false
	backoff := rt.downTTL << min(b.fails-1, maxBackoffShift)
	// Stagger deadlines deterministically by peer identity: up to +25% keeps
	// peers that failed in the same instant from retrying in the same instant.
	backoff += time.Duration(float64(backoff) * peerJitter(peer) / 4)
	b.retryAt = time.Now().Add(backoff)
}

// peerJitter maps a peer address to a stable fraction in [0, 1).
func peerJitter(peer string) float64 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(peer))
	return float64(h.Sum32()%256) / 256
}

// releaseEarliest moves the retry deadline of the best quarantined candidate
// — the one that would have been probed soonest anyway — up to now, so the
// caller's retry admits exactly that one peer as a probe. False when no
// candidate qualifies (each is either not quarantined or already probing).
func (rt *Router) releaseEarliest(candidates []string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var best *peerBreaker
	for _, peer := range candidates {
		b := rt.breakers[peer]
		if b == nil || !b.open || b.probing {
			continue
		}
		if best == nil || b.retryAt.Before(best.retryAt) {
			best = b
		}
	}
	if best == nil {
		return false
	}
	best.retryAt = time.Now()
	return true
}

func (rt *Router) forward(r *http.Request, target string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		"http://"+target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return rt.client.Do(req)
}

// ownerFromResponse parses the owner address out of a 421 body.
func ownerFromResponse(resp *http.Response) string {
	var er server.ErrorResponse
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er) != nil {
		return ""
	}
	return er.Owner
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// fanOut forwards r to every peer whose breaker admits it and hands each
// 200 body to merge; peers that fail to connect are quarantined as for a
// proxied request. It fails with ErrUnavailable when no peer's body merged.
func (rt *Router) fanOut(r *http.Request, merge func(body io.Reader) error) error {
	reached := 0
	for _, peer := range rt.ring.Peers() {
		if rt.isDown(peer) {
			continue
		}
		resp, err := rt.forward(r, peer, nil)
		if err != nil {
			rt.reportFailure(peer)
			continue
		}
		rt.reportSuccess(peer)
		if resp.StatusCode == http.StatusOK && merge(resp.Body) == nil {
			reached++
		}
		resp.Body.Close()
	}
	if reached == 0 {
		return fmt.Errorf("router: no fabric node reachable: %w", cverr.ErrUnavailable)
	}
	return nil
}

// handleList fans GET /v1/sessions out to every reachable peer and merges
// the results, deduplicating by name (a session shows up on its owner and
// on any follower replicating it).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	seen := make(map[string]bool)
	merged := []server.SessionInfo{}
	err := rt.fanOut(r, func(body io.Reader) error {
		var infos []server.SessionInfo
		if err := json.NewDecoder(body).Decode(&infos); err != nil {
			return err
		}
		for _, info := range infos {
			if !seen[info.Name] {
				seen[info.Name] = true
				merged = append(merged, info)
			}
		}
		return nil
	})
	if err != nil {
		server.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(merged)
}

// handleGlobalNext fans GET /v1/next out to every reachable peer and merges
// the partial rankings into the fabric-wide global top-k. Each node answers
// for the sessions it holds; a session visible on both its owner and a
// follower reports identical candidates (replication is bit-for-bit), so
// duplicates are dropped by (session, object). The merge re-applies the same
// total order every node used — gain per cost descending, ties by session
// name then object ascending — which makes the fabric-wide answer
// deterministic regardless of peer enumeration or response order.
func (rt *Router) handleGlobalNext(w http.ResponseWriter, r *http.Request) {
	k, err := server.ParseK(r, 1)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	type key struct {
		session string
		object  int
	}
	seen := make(map[key]bool)
	var merged []crowdval.GlobalNextCandidate
	err = rt.fanOut(r, func(body io.Reader) error {
		var resp server.GlobalNextResponse
		if err := json.NewDecoder(body).Decode(&resp); err != nil {
			return err
		}
		for _, c := range resp.Candidates {
			id := key{session: c.Session, object: c.Object}
			if seen[id] {
				continue
			}
			seen[id] = true
			merged = append(merged, crowdval.GlobalNextCandidate{
				Session: c.Session, Object: c.Object, Gain: c.Gain, GainPerCost: c.GainPerCost,
			})
		}
		return nil
	})
	if err != nil {
		server.WriteError(w, err)
		return
	}
	top := crowdval.MergeGlobalNext(merged, k)
	out := server.GlobalNextResponse{Candidates: make([]server.GlobalCandidateJSON, len(top))}
	for i, c := range top {
		out.Candidates[i] = server.GlobalCandidateJSON{
			Session: c.Session, Object: c.Object, Gain: c.Gain, GainPerCost: c.GainPerCost,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}
