package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	"crowdval/internal/cverr"
	"crowdval/internal/server"
	"crowdval/internal/wal"
)

// NodeConfig configures one fabric member.
type NodeConfig struct {
	// Self is this node's advertised address (host:port), the form peers and
	// routers reach it at.
	Self string
	// Peers is the full static fabric membership. Self is added if absent.
	Peers []string
	// Manager and Server are the node's serving tier; the node installs its
	// ownership gate and cluster-stats hook on Server.
	Manager *server.Manager
	Server  *server.Server
	// Client is used for outbound transfers (http.DefaultClient if nil).
	Client *http.Client
}

// Node makes a Manager/Server pair a member of the session fabric. It is an
// http.Handler: internal fabric endpoints (transfer, WAL subscribe, promote)
// are routed here, everything else falls through to the public API with the
// ownership gate applied.
type Node struct {
	// live holds the fabric counters (handoffs, promotions, not-owner
	// rejects), incremented in place with sync/atomic and sampled by Stats
	// through server.LoadStats; its gauges are unused, Stats computes them.
	// It is the first field because the 64-bit atomic functions need 8-byte
	// alignment, which Go guarantees on 32-bit platforms only for the first
	// word of an allocated struct.
	live server.ClusterStats

	self    string
	ring    *Ring
	manager *server.Manager
	api     *server.Server
	client  *http.Client
	mux     *http.ServeMux

	mu        sync.Mutex
	overrides map[string]string // session -> owner, layered over the ring
	follower  *Follower

	draining atomic.Bool
}

// NewNode builds a fabric member and installs its ownership gate and
// cluster-stats hook on the server.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: node needs an advertised address")
	}
	if cfg.Manager == nil || cfg.Server == nil {
		return nil, fmt.Errorf("cluster: node needs a manager and a server")
	}
	peers := cfg.Peers
	hasSelf := false
	for _, p := range peers {
		if p == cfg.Self {
			hasSelf = true
			break
		}
	}
	if !hasSelf {
		peers = append(append([]string(nil), peers...), cfg.Self)
	}
	ring, err := NewRing(peers)
	if err != nil {
		return nil, err
	}
	n := &Node{
		self:      cfg.Self,
		ring:      ring,
		manager:   cfg.Manager,
		api:       cfg.Server,
		client:    cfg.Client,
		overrides: make(map[string]string),
	}
	if n.client == nil {
		n.client = http.DefaultClient
	}
	n.mux = http.NewServeMux()
	n.mux.HandleFunc("POST /internal/v1/sessions/{name}/transfer", n.handleTransfer)
	n.mux.HandleFunc("GET /internal/v1/sessions/{name}/wal", n.handleSubscribe)
	n.mux.HandleFunc("POST /internal/v1/promote", n.handlePromote)
	n.mux.Handle("/", cfg.Server)
	cfg.Server.SetOwnerCheck(n.checkOwner)
	cfg.Server.SetClusterStats(n.Stats)
	return n, nil
}

func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

// Self returns the node's advertised address.
func (n *Node) Self() string { return n.self }

// Ring returns the fabric's ownership ring.
func (n *Node) Ring() *Ring { return n.ring }

// AttachFollower registers the follower replicating into this node's
// manager, so promotions stop its tail loops and its sessions are counted
// in the cluster stats.
func (n *Node) AttachFollower(f *Follower) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.follower = f
}

func (n *Node) followerRef() *Follower {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.follower
}

// Owner returns the address that owns session name: an explicit override
// (recorded on handoff or promotion) when present, the ring otherwise.
func (n *Node) Owner(name string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if o, ok := n.overrides[name]; ok {
		return o
	}
	return n.ring.Owner(name)
}

func (n *Node) setOverride(name, owner string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.overrides[name] = owner
}

// checkOwner is the gate the server applies to owner-only operations.
func (n *Node) checkOwner(name string) error {
	owner := n.Owner(name)
	if owner == n.self {
		return nil
	}
	atomic.AddInt64(&n.live.NotOwnerRejects, 1)
	return &server.NotOwnerError{Name: name, Owner: owner}
}

// Stats samples the fabric counters for the metrics endpoints.
func (n *Node) Stats() server.ClusterStats {
	var owned int64
	for _, info := range n.manager.Sessions() {
		if n.Owner(info.Name) == n.self {
			owned++
		}
	}
	var followed, lag int64
	if f := n.followerRef(); f != nil {
		followed, lag = f.Stats()
	}
	s := server.LoadStats(&n.live)
	s.Self = n.self
	s.Peers = int64(len(n.ring.peers))
	s.SessionsOwned = owned
	s.FollowedSessions = followed
	s.ReplicationLagLSN = lag
	return s
}

// Promote adopts session name: this node must already hold its state (via
// replication or an earlier transfer). The follower's tail loop for the
// session, if any, is stopped first.
func (n *Node) Promote(name string) error {
	if !n.manager.Has(name) {
		return fmt.Errorf("cluster: promoting %q: %w", name, cverr.ErrSessionNotFound)
	}
	if f := n.followerRef(); f != nil {
		f.Stop(name)
	}
	n.setOverride(name, n.self)
	atomic.AddInt64(&n.live.Promotions, 1)
	return nil
}

// Drain marks the node not-ready and hands every session it owns to the
// next preferred peer, in ring order. Sessions this node merely follows
// stay. On return with nil error, no acked operation is lost: each handoff
// fsyncs the session's WAL, transfers snapshot+LSN, and only then retires
// the local copy.
func (n *Node) Drain(ctx context.Context) error {
	n.draining.Store(true)
	n.api.SetDraining(true)
	var firstErr error
	for _, info := range n.manager.Sessions() {
		if n.Owner(info.Name) != n.self {
			continue
		}
		if err := n.handoffTo(ctx, info.Name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// handoffTo moves one session to the first willing peer in preference
// order. A failed send leaves the session serving locally, so the next
// candidate is tried with fresh state.
func (n *Node) handoffTo(ctx context.Context, name string) error {
	var lastErr error
	for _, target := range n.ring.Prefs(name) {
		if target == n.self {
			continue
		}
		err := n.manager.HandoffSession(ctx, name, func(snap []byte, lsn uint64) error {
			return n.sendTransfer(ctx, target, name, snap, lsn)
		})
		if err == nil {
			n.setOverride(name, target)
			atomic.AddInt64(&n.live.HandoffsOut, 1)
			return nil
		}
		if errors.Is(err, cverr.ErrSessionNotFound) {
			return nil // deleted concurrently; nothing to move
		}
		lastErr = err
	}
	return fmt.Errorf("cluster: handing off %q: %w", name, lastErr)
}

// sendTransfer moves a session to target over POST
// /internal/v1/sessions/{name}/transfer. The body is what a subscribe stream
// sends as its reset: a WAL header based at lsn-1 and one create record
// carrying the snapshot at lsn.
func (n *Node) sendTransfer(ctx context.Context, target, name string, snap []byte, lsn uint64) error {
	var body bytes.Buffer
	if _, err := startStream(streamFile{w: &body}, snap, lsn); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+target+"/internal/v1/sessions/"+url.PathEscape(name)+"/transfer", &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: transfer of %q to %s rejected: %s: %s", name, target, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// handleTransfer adopts a session handed off by its owner. The body must be
// exactly one create record at an LSN above zero behind a WAL header;
// anything else is rejected with 400 ErrBadRequest before the local state is
// touched.
func (n *Node) handleTransfer(w http.ResponseWriter, r *http.Request) {
	if n.draining.Load() {
		server.WriteError(w, fmt.Errorf("cluster: node is draining: %w", cverr.ErrUnavailable))
		return
	}
	name := r.PathValue("name")
	rec, lsn, err := readTransfer(http.MaxBytesReader(w, r.Body, 1<<30))
	if err != nil {
		server.WriteError(w, fmt.Errorf("cluster: malformed transfer: %w: %w", err, cverr.ErrBadRequest))
		return
	}
	// A follower tailing this session from the donor must stop before the
	// reset; its stream is about to end anyway (the donor retires the log).
	if f := n.followerRef(); f != nil {
		f.Stop(name)
	}
	if err := applyRecord(r.Context(), n.manager, name, rec, lsn); err != nil {
		server.WriteError(w, fmt.Errorf("cluster: adopting transfer: %w", err))
		return
	}
	n.setOverride(name, n.self)
	atomic.AddInt64(&n.live.HandoffsIn, 1)
	w.WriteHeader(http.StatusNoContent)
}

// readTransfer parses a transfer body: a WAL header, one create record at an
// LSN above zero, and a clean end of stream.
func readTransfer(body io.Reader) (wal.Record, uint64, error) {
	rd, err := wal.NewReader(body)
	if err != nil {
		return wal.Record{}, 0, err
	}
	rec, lsn, err := rd.Next()
	switch {
	case err == io.EOF:
		return wal.Record{}, 0, errors.New("no create record")
	case err != nil:
		return wal.Record{}, 0, err
	case rec.Type != wal.RecCreate:
		return wal.Record{}, 0, fmt.Errorf("first record has type %d, not a create record", rec.Type)
	case lsn == 0:
		return wal.Record{}, 0, errors.New("create record at LSN 0")
	}
	if _, _, err := rd.Next(); err != io.EOF {
		return wal.Record{}, 0, errors.New("data after the create record")
	}
	return rec, lsn, nil
}

func (n *Node) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var from uint64
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			server.WriteError(w, fmt.Errorf("cluster: bad from LSN %q: %w", s, cverr.ErrBadRequest))
			return
		}
		from = v
	}
	if !n.manager.Has(name) {
		server.WriteError(w, fmt.Errorf("cluster: subscribing to %q: %w", name, cverr.ErrSessionNotFound))
		return
	}
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	// Errors past this point cannot change the status; the follower treats a
	// closed stream as a reconnect signal.
	_ = streamSession(r.Context(), n.manager, name, from, w, fl)
}

// promoteRequest is the body of POST /internal/v1/promote: adopt one
// followed session by name, or every session this node holds but does not
// own (All).
type promoteRequest struct {
	Name string `json:"name,omitempty"`
	All  bool   `json:"all,omitempty"`
}

type promoteResponse struct {
	Promoted []string `json:"promoted"`
}

func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req promoteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		server.WriteError(w, fmt.Errorf("cluster: malformed promote: %w: %w", err, cverr.ErrBadRequest))
		return
	}
	var names []string
	if req.All {
		for _, info := range n.manager.Sessions() {
			if n.Owner(info.Name) != n.self {
				names = append(names, info.Name)
			}
		}
	} else if req.Name != "" {
		names = []string{req.Name}
	} else {
		server.WriteError(w, fmt.Errorf("cluster: promote needs a name or all: %w", cverr.ErrBadRequest))
		return
	}
	resp := promoteResponse{Promoted: []string{}}
	for _, name := range names {
		if err := n.Promote(name); err != nil {
			if !req.All {
				server.WriteError(w, err)
				return
			}
			continue
		}
		resp.Promoted = append(resp.Promoted, name)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
