package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"crowdval/internal/server"
	"crowdval/internal/wal"
)

// FollowerConfig configures replication from one leader.
type FollowerConfig struct {
	// Manager receives the replicated sessions (log-before-apply, so a
	// promoted follower has the same durability as the leader had).
	Manager *server.Manager
	// Leader is the address (host:port) whose sessions are followed.
	Leader string
	// Client is used for discovery and the subscribe streams. It must not
	// have a global Timeout: a subscribe stream stays open for the life of
	// the session. http.DefaultClient if nil.
	Client *http.Client
	// DiscoverInterval is how often the leader's session list is polled for
	// new sessions (default 250ms). RetryInterval is the base backoff between
	// reconnects of a dropped stream (default 200ms); consecutive failed
	// reconnects back off exponentially from there (capped, jittered per
	// session), and a successful stream resets the backoff.
	DiscoverInterval time.Duration
	RetryInterval    time.Duration
}

// Follower tails a leader's per-session WAL streams and applies each record
// to the local manager, keeping a warm, promotable copy of every session
// the leader serves. Start it with Run; stop it by cancelling Run's
// context. Individual sessions stop being followed via Stop (used by
// promotion and inbound transfers).
type Follower struct {
	cfg FollowerConfig

	mu    sync.Mutex
	loops map[string]*tailLoop
	seen  map[string]uint64 // newest leader LSN observed per session
	wg    sync.WaitGroup
}

// tailLoop identifies one running tail goroutine; the pointer doubles as an
// identity token so a loop only unregisters itself, never a successor that
// replaced it after Stop plus rediscovery.
type tailLoop struct {
	cancel context.CancelFunc
}

// NewFollower builds a follower; it does nothing until Run.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Manager == nil {
		return nil, fmt.Errorf("cluster: follower needs a manager")
	}
	if cfg.Leader == "" {
		return nil, fmt.Errorf("cluster: follower needs a leader address")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.DiscoverInterval <= 0 {
		cfg.DiscoverInterval = 250 * time.Millisecond
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 200 * time.Millisecond
	}
	return &Follower{
		cfg:   cfg,
		loops: make(map[string]*tailLoop),
		seen:  make(map[string]uint64),
	}, nil
}

// Leader returns the address this follower replicates from.
func (f *Follower) Leader() string { return f.cfg.Leader }

// Run discovers the leader's sessions and tails each one until ctx is
// cancelled. It returns after every tail loop has exited.
func (f *Follower) Run(ctx context.Context) {
	for ctx.Err() == nil {
		f.discover(ctx)
		if err := sleepCtx(ctx, f.cfg.DiscoverInterval); err != nil {
			break
		}
	}
	f.wg.Wait()
}

// discover polls the leader's session list and starts a tail loop for every
// session not already followed. Discovery failures are silent: the leader
// being briefly unreachable must not kill replication of known sessions.
func (f *Follower) discover(ctx context.Context) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+f.cfg.Leader+"/v1/sessions", nil)
	if err != nil {
		return
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var infos []server.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return
	}
	for _, info := range infos {
		f.ensureLoop(ctx, info.Name)
	}
}

func (f *Follower) ensureLoop(ctx context.Context, name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.loops[name]; ok {
		return
	}
	loopCtx, cancel := context.WithCancel(ctx)
	loop := &tailLoop{cancel: cancel}
	f.loops[name] = loop
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer f.drop(name, loop)
		f.followSession(loopCtx, name)
	}()
}

// drop removes the loop entry if it still belongs to this loop (Stop plus
// rediscovery may have replaced it).
func (f *Follower) drop(name string, loop *tailLoop) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.loops[name] == loop {
		delete(f.loops, name)
	}
}

// Stop ends the tail loop for one session (promotion adopted it, or a
// transfer replaced it). The local copy stays in the manager.
func (f *Follower) Stop(name string) {
	f.mu.Lock()
	loop, ok := f.loops[name]
	if ok {
		delete(f.loops, name)
		delete(f.seen, name)
	}
	f.mu.Unlock()
	if ok {
		loop.cancel()
	}
}

// Followed lists the sessions currently being tailed.
func (f *Follower) Followed() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.loops))
	for name := range f.loops {
		names = append(names, name)
	}
	return names
}

// Stats returns the number of followed sessions and the largest
// leader-to-local LSN gap across them, from the latest stream samples.
func (f *Follower) Stats() (followed, maxLag int64) {
	f.mu.Lock()
	names := make([]string, 0, len(f.loops))
	for name := range f.loops {
		names = append(names, name)
	}
	seen := make(map[string]uint64, len(names))
	for _, name := range names {
		seen[name] = f.seen[name]
	}
	f.mu.Unlock()
	followed = int64(len(names))
	for _, name := range names {
		applied, err := f.cfg.Manager.SessionLSN(name)
		if err != nil {
			applied = 0
		}
		if lag := int64(seen[name]) - int64(applied); lag > maxLag {
			maxLag = lag
		}
	}
	return followed, maxLag
}

func (f *Follower) noteSeen(name string, lsn uint64) {
	f.mu.Lock()
	if lsn > f.seen[name] {
		f.seen[name] = lsn
	}
	f.mu.Unlock()
}

// followSession reconnects the subscribe stream until ctx ends or the
// leader reports the session gone (deleted or handed off elsewhere).
// Consecutive failed reconnects back off exponentially with a per-session
// jitter — during a partition every tail loop would otherwise hammer the
// unreachable leader in lockstep at RetryInterval, and reconnect in one
// synchronized herd when it heals. A stream that delivered (status 200)
// resets the backoff to the base interval so a healthy leader's blips
// recover fast.
func (f *Follower) followSession(ctx context.Context, name string) {
	fails := 0
	for ctx.Err() == nil {
		from, err := f.cfg.Manager.SessionLSN(name)
		if err != nil {
			from = 0 // nothing local yet: the leader will send a reset
		}
		target := fmt.Sprintf("http://%s/internal/v1/sessions/%s/wal?from=%d",
			f.cfg.Leader, url.PathEscape(name), from)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		if err != nil {
			return
		}
		fails++
		resp, err := f.cfg.Client.Do(req)
		if err == nil {
			if resp.StatusCode == http.StatusNotFound {
				resp.Body.Close()
				return
			}
			if resp.StatusCode == http.StatusOK {
				fails = 0
				f.consume(ctx, name, resp.Body)
			}
			resp.Body.Close()
		}
		wait := f.cfg.RetryInterval
		if fails > 1 {
			wait = f.cfg.RetryInterval << min(fails-1, maxBackoffShift)
			wait += time.Duration(float64(wait) * peerJitter(name) / 4)
		}
		if sleepCtx(ctx, wait) != nil {
			return
		}
	}
}

// consume applies one stream until it errors. Both a clean close (io.EOF)
// and a torn frame (the connection died mid-record; surfaces as ErrBadWAL)
// mean reconnect — the next subscribe resumes from the local LSN, and the
// leader skips or resets as needed. Apply errors also just end the stream:
// a gap (ErrBadWAL from ReplicaApply) self-heals the same way, because the
// reconnect's from-LSN reflects exactly what was applied.
func (f *Follower) consume(ctx context.Context, name string, body io.Reader) {
	rd, err := wal.NewReader(body)
	if err != nil {
		return
	}
	for {
		rec, lsn, err := rd.Next()
		if err != nil {
			return
		}
		f.noteSeen(name, lsn)
		if applyRecord(ctx, f.cfg.Manager, name, rec, lsn) != nil {
			return
		}
	}
}
