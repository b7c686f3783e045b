// Package server is the multi-tenant serving layer of the crowdval library:
// a SessionManager that keeps many named validation sessions resident,
// serializes the writers of each session while allowing concurrent readers,
// parks cold sessions to disk under a configurable memory budget using the
// snapshot codec, and transparently resumes them on the next touch — the
// architecture that lets one process serve far more long-lived validation
// campaigns than fit in memory, because the i-EM warm start makes a resumed
// session exactly as cheap to update as one that never left. An HTTP facade
// (Server) exposes the manager as a JSON API.
package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"crowdval"
	"crowdval/internal/cverr"
	"crowdval/internal/fault"
	"crowdval/internal/wal"
)

// ManagerConfig parameterizes a SessionManager.
type ManagerConfig struct {
	// MemoryBudget caps the estimated bytes of resident session state. When
	// the total exceeds the budget, least-recently-used sessions are parked
	// to disk until it fits (the session in active use is never parked).
	// Zero or negative means unlimited: nothing is ever parked automatically.
	MemoryBudget int64
	// ParkDir is the directory parked session snapshots are written to. It
	// is created if missing.
	ParkDir string

	// WALDir enables durability: every session mutation is appended to a
	// per-session write-ahead log in this directory before it is applied,
	// periodic snapshot checkpoints bound replay time, and Recover rebuilds
	// the sessions after a crash. Empty disables the WAL (the pre-durability
	// behavior: a crash loses everything since the last explicit snapshot).
	WALDir string
	// WALSync is the log's fsync policy (see wal.SyncPolicy): per-record,
	// every-N-records, or never. The zero value is SyncOff.
	WALSync wal.SyncPolicy
	// CheckpointEvery is the number of logged records between snapshot
	// checkpoints of a session (which also truncate its log down to the
	// fallback generation). Zero means DefaultCheckpointEvery when the WAL
	// is enabled; negative disables checkpointing.
	CheckpointEvery int
	// MaxQueuedIngest bounds the per-session ingest coalescing queue. An
	// AddAnswers request that finds the queue at the bound is shed with
	// ErrOverloaded (HTTP 429) instead of piling up behind a slow
	// aggregation. Zero or negative means unbounded.
	MaxQueuedIngest int
	// WALFlushEachRecord flushes (without fsyncing) the log buffer after every
	// appended record, so a WAL tailer — a follower subscription — sees a
	// record as soon as it is logged instead of at the next sync point. It
	// costs a small write per mutation and changes no durability guarantee;
	// irrelevant (and ignored) under wal.SyncAlways, which flushes anyway.
	WALFlushEachRecord bool
	// FaultInjector, when set, is threaded through every durability I/O seam
	// — WAL appends and fsyncs, checkpoint writes, rotation renames, file
	// opens, the health probe — so tests and chaos harnesses inject disk
	// faults exactly where a real disk would fail. nil (the default) injects
	// nothing and costs one nil check per seam.
	FaultInjector *fault.Injector
}

// WithWAL returns a copy of the config with the write-ahead log enabled in
// dir under the given sync policy — the fluent spelling of setting WALDir
// and WALSync directly.
func (c ManagerConfig) WithWAL(dir string, policy wal.SyncPolicy) ManagerConfig {
	c.WALDir = dir
	c.WALSync = policy
	return c
}

// DefaultCheckpointEvery is the records-between-checkpoints default when the
// WAL is enabled and ManagerConfig.CheckpointEvery is zero.
const DefaultCheckpointEvery = 256

// Manager owns a set of named, long-lived validation sessions. All methods
// are safe for concurrent use: operations on distinct sessions run in
// parallel, operations on one session are serialized through a per-session
// RWMutex (single writer, many readers), and the LRU/accounting state is
// guarded separately so slow session work never blocks bookkeeping of other
// sessions.
type Manager struct {
	// live holds the metric counters, each incremented in place where its
	// event happens, with sync/atomic functions: selections run under shared
	// entry read locks, WAL appends inside per-session critical sections, and
	// a metrics scrape must never queue behind (or take a lock inside)
	// either. Stats loads every int64 field (LoadStats); the table gauges in
	// it are unused here, computed under mu instead. live is the first field
	// because the 64-bit atomic functions need 8-byte alignment, which Go
	// guarantees on 32-bit platforms only for the first word of an allocated
	// struct.
	live Stats

	budget int64
	dir    string

	// Durability configuration (immutable after NewManager).
	walDir       string
	walSync      wal.SyncPolicy
	ckptEvery    int
	maxIngestQ   int
	walFlushEach bool
	// walOpen wraps every opened log file; the crash-fault-injection tests
	// install a writer that dies at a chosen byte offset. nil = identity.
	walOpen func(name string, f *os.File) wal.File
	// injector is the configured fault injector; nil injects nothing (its
	// methods are nil-receiver safe, so seams call it unconditionally).
	injector *fault.Injector

	// mu guards the session table, the LRU list and the table-derived
	// accounting below. It is never held while session work runs.
	mu       sync.Mutex
	sessions map[string]*entry
	lru      *list.List // of *entry; front = most recently used
	resident int64      // estimated bytes of resident session state
	parked   int64      // number of parked sessions
	// budgetRemaining is the summed monetary budget remaining across all
	// budgeted sessions, folded in by settle after every exclusive operation
	// (a read never changes a budget).
	budgetRemaining float64
}

// entry is the manager's handle for one named session.
//
// Locking: sess, deleted and isParked are guarded by the entry's own mu;
// bytes, parking and elem are guarded by the manager's mu. The only place
// both are held is the accounting step after an operation, which takes
// them in the fixed order entry.mu → manager.mu.
type entry struct {
	// folded is how much of the session's statistics foldSession has
	// already added to the manager's totals. It is updated atomically and is
	// the first field for the same alignment reason as Manager.live.
	folded crowdval.SessionCounters

	name string

	mu       sync.RWMutex
	sess     *crowdval.Session // nil while parked (or while creation is in flight)
	deleted  bool
	isParked bool
	// memo is the ranking memo park took from the session together with its
	// park file. It is set only by park, answers the reads it certifies (see
	// view) and is consumed by unpark, which hands it to the session resumed
	// from that file; every other way out of
	// the parked state (retire, a failed unpark) drops it. Guarded by mu.
	memo crowdval.RankingMemo
	// log is the session's write-ahead log state; nil when the manager runs
	// without a WAL. It is guarded by mu like sess: every append runs inside
	// the session's write critical section, which is what keeps log order
	// identical to apply order.
	log *sessionWAL

	bytes   int64 // last accounted MemoryEstimate; 0 while parked
	parking bool  // selected as an eviction victim, park in flight
	// budgetRemaining is the session's monetary budget remaining as last
	// folded into the manager's sum; guarded by the manager's mu like bytes.
	// It survives parking — a parked tenant's budget is still outstanding.
	budgetRemaining float64
	// parkedAccounted mirrors isParked under the manager's mu, so listings
	// and stats never have to touch an entry lock (which an in-flight EM
	// re-aggregation may hold for a long time).
	parkedAccounted bool
	elem            *list.Element

	// ingestMu guards ingestQueue: tickets of ingest requests waiting to be
	// applied. It is a leaf lock, never held while taking mu or the
	// manager's mu.
	ingestMu    sync.Mutex
	ingestQueue []*ingestTicket
}

// ingestTicket is one queued ingest request. Whichever requester first wins
// the session's write lock drains the whole queue in one merged AddAnswers
// call and resolves every drained ticket through its channel.
type ingestTicket struct {
	answers []crowdval.Answer
	done    chan ingestOutcome
}

// ingestOutcome is the per-ticket result of a (possibly coalesced) ingest.
type ingestOutcome struct {
	total int // session answer count after the batch that carried this ticket
	err   error
}

// NewManager prepares a session manager, creating the park (and, when
// durability is enabled, WAL) directories if needed. A manager with a WALDir
// does not recover leftover logs on its own — call Recover before serving to
// rebuild the sessions of a crashed predecessor.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.ParkDir == "" {
		return nil, fmt.Errorf("server: ManagerConfig.ParkDir is required")
	}
	if err := os.MkdirAll(cfg.ParkDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating park directory: %w", err)
	}
	ckptEvery := cfg.CheckpointEvery
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: creating WAL directory: %w", err)
		}
		if ckptEvery == 0 {
			ckptEvery = DefaultCheckpointEvery
		}
	}
	return &Manager{
		budget:       cfg.MemoryBudget,
		dir:          cfg.ParkDir,
		walDir:       cfg.WALDir,
		walSync:      cfg.WALSync,
		ckptEvery:    ckptEvery,
		maxIngestQ:   cfg.MaxQueuedIngest,
		walFlushEach: cfg.WALFlushEachRecord,
		injector:     cfg.FaultInjector,
		sessions:     make(map[string]*entry),
		lru:          list.New(),
	}, nil
}

// ValidateSessionName reports whether a name is acceptable: 1–128 characters
// from [A-Za-z0-9._-], starting with a letter or digit. The restriction keeps
// names directly usable as park file names and URL path segments. Failures
// wrap ErrBadRequest (the HTTP layer maps them to 400).
func ValidateSessionName(name string) error {
	if len(name) == 0 || len(name) > 128 {
		return fmt.Errorf("server: session name must have 1-128 characters: %w", cverr.ErrBadRequest)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return fmt.Errorf("server: session name %q may only contain letters, digits, '.', '_' and '-', starting with a letter or digit: %w", name, cverr.ErrBadRequest)
		}
	}
	return nil
}

func (m *Manager) parkPath(name string) string {
	return filepath.Join(m.dir, name+".park")
}

// Create builds a new session under the given name. The context bounds the
// initial cold aggregation, the dominant cost of session creation.
func (m *Manager) Create(ctx context.Context, name string, answers *crowdval.AnswerSet, opts ...crowdval.Option) error {
	return m.install(name, func() (*crowdval.Session, *sessionWAL, error) {
		sess, err := crowdval.NewSession(answers, append(append([]crowdval.Option(nil), opts...), crowdval.WithContext(ctx))...)
		if err != nil {
			return nil, nil, err
		}
		w, err := m.createWAL(name, sess)
		return sess, w, err
	})
}

// CreateFromSnapshot installs a session resumed from an encoded snapshot
// under the given name — the explicit resume path, e.g. for migrating a
// session from another process.
func (m *Manager) CreateFromSnapshot(ctx context.Context, name string, snap []byte, opts ...crowdval.Option) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return m.install(name, func() (*crowdval.Session, *sessionWAL, error) {
		sess, err := crowdval.ResumeSession(snap, opts...)
		if err != nil {
			return nil, nil, err
		}
		w, err := m.createWAL(name, sess)
		return sess, w, err
	})
}

// install is the one way a session enters the manager — creation, resume,
// adoption from another node and crash recovery. It reserves the name with
// a placeholder entry, runs build outside every lock except the entry's own,
// and either publishes what build returned (the session and its log — nil
// without a WAL) or rolls the reservation back. Log-before-serve: build
// makes the session durable before the name is published, so no
// acknowledged creation can be lost to a crash. Concurrent operations on the
// same name block on the entry lock until the creation settles. The rollback is deferred, so a build that
// fails, or panics, never leaves the name reserved and its entry locked.
func (m *Manager) install(name string, build func() (*crowdval.Session, *sessionWAL, error)) error {
	if err := ValidateSessionName(name); err != nil {
		return err
	}
	e := &entry{name: name}
	e.mu.Lock()
	m.mu.Lock()
	if _, exists := m.sessions[name]; exists {
		m.mu.Unlock()
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", cverr.ErrSessionExists, name)
	}
	m.sessions[name] = e
	e.elem = m.lru.PushFront(e)
	m.mu.Unlock()

	built := false
	defer func() {
		if built {
			return
		}
		e.deleted = true
		e.mu.Unlock()
		m.mu.Lock()
		delete(m.sessions, name)
		m.lru.Remove(e.elem)
		m.mu.Unlock()
	}()
	sess, w, err := build()
	if err != nil {
		return err
	}
	built = true
	e.sess, e.log = sess, w
	victims := m.settle(e)
	e.mu.Unlock()
	m.parkAll(victims)
	return nil
}

// Delete removes a session and its park file, if any. In-flight operations
// on the session finish first; the name stays reserved (creations of the
// same name fail with ErrSessionExists) until the deletion completes, so the
// park file is always removed while this entry still owns it — a same-name
// session created afterwards can never lose its own park file to a stale
// Delete.
func (m *Manager) Delete(name string) error {
	m.mu.Lock()
	e, ok := m.sessions[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", cverr.ErrSessionNotFound, name)
	}
	m.mu.Unlock()

	e.mu.Lock()
	if e.deleted {
		// A concurrent Delete won the race for this entry.
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", cverr.ErrSessionNotFound, name)
	}
	m.retire(e)
	return nil
}

// retire drops a session for good — Delete, or a completed handoff to
// another node. The caller holds the entry's write lock; retire marks the
// entry deleted, closes its log and releases the log's health gauge (a
// retired session is no longer degraded or fail-stopped), removes its
// durability and park files, unlocks the entry, and only then takes it out
// of the table and the accounting, so the name stays reserved until its
// files are gone.
func (m *Manager) retire(e *entry) {
	wasParked := e.isParked
	e.deleted = true
	e.sess = nil
	e.isParked = false
	m.takeMemo(e)
	if w := e.log; w != nil {
		switch w.state {
		case walDegraded:
			atomic.AddInt64(&m.live.WALDegradedSessions, -1)
		case walFailStop:
			atomic.AddInt64(&m.live.WALFailStopSessions, -1)
		}
		w.close()
		e.log = nil
	}
	m.removeWALFiles(e.name)
	_ = os.Remove(m.parkPath(e.name))
	e.mu.Unlock()

	m.mu.Lock()
	if cur, ok := m.sessions[e.name]; ok && cur == e {
		delete(m.sessions, e.name)
		m.lru.Remove(e.elem)
	}
	m.resident -= e.bytes
	e.bytes = 0
	e.parkedAccounted = false
	m.budgetRemaining -= e.budgetRemaining
	e.budgetRemaining = 0
	if wasParked {
		m.parked--
	}
	m.mu.Unlock()
}

// lookup finds the entry for a name and marks it most recently used.
func (m *Manager) lookup(name string) (*entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.sessions[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", cverr.ErrSessionNotFound, name)
	}
	m.lru.MoveToFront(e.elem)
	return e, nil
}

// updateLogged runs fn with exclusive access to the named session (see
// exclusive) under the log-before-apply discipline: rec is appended to the
// session's WAL (when one is configured) before fn runs, a
// failed append skips fn entirely, and a checkpoint is taken afterwards when
// due. fn's own error does not suppress the logged record — replaying a
// record whose application failed re-fails deterministically, because the
// library rejects invalid mutations without mutating.
//
// fn receives the context to apply the mutation under, not the request's
// context verbatim: once the record is logged it WILL be replayed after a
// crash, so the live apply must not be abortable by the request's
// cancellation — a mutation rolled back on a client timeout would resurrect
// during recovery and diverge recovered state from live state. Cancellation
// still rejects the request cleanly before anything is logged.
func (m *Manager) updateLogged(ctx context.Context, name string, rec wal.Record, fn func(context.Context, *crowdval.Session) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e, err := m.lookup(name)
	if err != nil {
		return err
	}
	return m.exclusive(e, name, func(s *crowdval.Session) error {
		if err := m.logMutation(e, rec); err != nil {
			return err
		}
		applyCtx := ctx
		if e.log != nil {
			applyCtx = context.WithoutCancel(ctx)
		}
		opErr := fn(applyCtx, s)
		m.maybeCheckpoint(e)
		return opErr
	})
}

// exclusive is the shared write path — logged updates, ingest drains, the
// fabric's snapshot and replication paths, and the parked-session fallback
// of view and the global ranking: lock the entry, resume it if parked, run
// fn, re-account the session's memory and park budget victims (never the
// session just used).
func (m *Manager) exclusive(e *entry, name string, fn func(*crowdval.Session) error) error {
	e.mu.Lock()
	if e.deleted {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", cverr.ErrSessionNotFound, name)
	}
	if e.sess == nil {
		if err := m.unpark(e); err != nil {
			e.mu.Unlock()
			return err
		}
	}
	opErr := fn(e.sess)
	victims := m.settle(e)
	e.mu.Unlock()
	m.parkAll(victims)
	return opErr
}

// view runs fn with shared access to the named session: concurrent view calls
// on the same resident session proceed in parallel. A parked session first
// offers its carried ranking memo to parked, when that is not nil, under the
// read lock; if parked answers from it, nothing is resumed, evicted or read
// from disk. Otherwise it falls back to the exclusive path, which resumes it.
//
// The memo needs no resumed engine's state check: park is its one writer,
// every other transition (unpark, failed or not, and retire) drops it, and no
// mutation reaches a parked session without exclusive resuming it first.
func (m *Manager) view(ctx context.Context, name string, parked func(crowdval.RankingMemo) bool, fn func(*crowdval.Session) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e, err := m.lookup(name)
	if err != nil {
		return err
	}
	e.mu.RLock()
	if e.deleted {
		e.mu.RUnlock()
		return fmt.Errorf("%w: %q", cverr.ErrSessionNotFound, name)
	}
	if e.sess != nil {
		defer e.mu.RUnlock()
		err := fn(e.sess)
		m.foldSession(e, e.sess)
		return err
	}
	if parked != nil && parked(e.memo) {
		e.mu.RUnlock()
		atomic.AddInt64(&m.live.ParkedSelections, 1)
		return nil
	}
	e.mu.RUnlock()
	return m.exclusive(e, name, fn)
}

// foldPairs pairs each SessionCounters field with the same-named Stats field
// it is summed into, by field index. Computed once: foldSession runs after
// every operation.
var foldPairs = pairFields(reflect.TypeFor[crowdval.SessionCounters](), reflect.TypeFor[Stats]())

// pairFields returns, for every field of from, its index and the index of the
// same-named int64 field of to. It panics when to has no such field: a
// session counter the metrics would silently drop.
func pairFields(from, to reflect.Type) [][2]int {
	pairs := make([][2]int, from.NumField())
	for i := range pairs {
		name := from.Field(i).Name
		f, ok := to.FieldByName(name)
		if !ok || f.Type.Kind() != reflect.Int64 || from.Field(i).Type.Kind() != reflect.Int64 {
			panic(fmt.Sprintf("server: session counter %s has no int64 %s field of the same name", name, to.Name()))
		}
		pairs[i] = [2]int{i, f.Index[0]}
	}
	return pairs
}

// foldSession adds what the session's cumulative statistics gained since the
// entry's last fold to the manager's totals. It runs after every operation:
// under the entry's write lock (settle) and under its shared read lock
// (selections), so concurrent folds must be exact — addMonotone adds each
// increment exactly once. unpark resets the entry's folded counters, since a
// resumed session counts from zero.
func (m *Manager) foldSession(e *entry, sess *crowdval.Session) {
	cur := sess.Counters()
	curV := reflect.ValueOf(&cur).Elem()
	seenV := reflect.ValueOf(&e.folded).Elem()
	liveV := reflect.ValueOf(&m.live).Elem()
	for _, p := range foldPairs {
		addMonotone(seenV.Field(p[0]).Addr().Interface().(*int64), liveV.Field(p[1]).Addr().Interface().(*int64), curV.Field(p[0]).Int())
	}
}

// addMonotone folds a session's monotone cumulative counter value cur into
// total, with seen remembering how much of cur is already folded in. Safe for
// concurrent callers: the CAS guarantees each increment of cur is added to
// total exactly once, and callers observing a stale (smaller) cur drop out.
func addMonotone(seen, total *int64, cur int64) {
	for {
		s := atomic.LoadInt64(seen)
		if cur <= s {
			return
		}
		if atomic.CompareAndSwapInt64(seen, s, cur) {
			atomic.AddInt64(total, cur-s)
			return
		}
	}
}

// unpark resumes a parked session from its park file and hands it the
// ranking memo park carried, so a session parked with a valid ranking serves
// its next selection without re-ranking. A failed unpark drops the memo. The
// caller holds the entry's write lock.
func (m *Manager) unpark(e *entry) error {
	memo := m.takeMemo(e)
	snap, err := m.readParkFile(e.name)
	if err != nil {
		return fmt.Errorf("server: unparking session %q: %w", e.name, err)
	}
	sess, err := crowdval.ResumeSession(snap)
	if err != nil {
		return fmt.Errorf("server: unparking session %q: %w", e.name, err)
	}
	_ = os.Remove(m.parkPath(e.name))
	if sess.AdoptRankingMemo(memo) {
		atomic.AddInt64(&m.live.MemoResumes, 1)
	}
	e.sess = sess
	e.isParked = false
	e.folded = crowdval.SessionCounters{}
	m.mu.Lock()
	e.bytes = sess.MemoryEstimate()
	m.resident += e.bytes
	e.parkedAccounted = false
	m.parked--
	atomic.AddInt64(&m.live.Resumes, 1)
	m.mu.Unlock()
	return nil
}

// takeMemo detaches the entry's carried ranking memo and releases its bytes
// from the gauge. The caller holds the entry's write lock.
func (m *Manager) takeMemo(e *entry) crowdval.RankingMemo {
	memo := e.memo
	e.memo = crowdval.RankingMemo{}
	atomic.AddInt64(&m.live.CarriedMemoBytes, -memo.Bytes())
	return memo
}

// settle re-accounts a session after an operation — statistics, budget and
// memory estimate — and selects eviction victims if the budget is exceeded.
// The caller holds the entry's write lock and must park the returned victims
// after releasing it (parking locks other entries; doing it while holding
// this one could deadlock two settles picking each other's entry).
func (m *Manager) settle(e *entry) []*entry {
	m.foldSession(e, e.sess)
	size := e.sess.MemoryEstimate()
	rem := 0.0
	if t, ok := e.sess.CostBudget(); ok {
		rem = t.Remaining()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budgetRemaining += rem - e.budgetRemaining
	e.budgetRemaining = rem
	m.resident += size - e.bytes
	e.bytes = size
	if m.budget <= 0 {
		return nil
	}
	var victims []*entry
	over := m.resident - m.budget
	for el := m.lru.Back(); el != nil && over > 0; el = el.Prev() {
		v := el.Value.(*entry)
		if v == e || v.parking || v.bytes == 0 {
			continue
		}
		v.parking = true
		over -= v.bytes
		victims = append(victims, v)
	}
	return victims
}

func (m *Manager) parkAll(victims []*entry) {
	for _, v := range victims {
		m.park(v)
	}
}

// park snapshots a victim to disk and drops it from memory. A session that
// was deleted, already parked, or cannot be snapshotted stays as it is.
//
// What survives a park: the session's full state, in the park file, and —
// in memory, on the entry — the rankings it had memoized for that state
// (Session.TakeRankingMemo), taken in the same write-locked section that
// writes the file so both describe one state. unpark resumes the file and
// installs the memo, so a session parked with a valid ranking answers its
// next selection without re-ranking. The scoring index and every other
// derived structure are rebuilt on demand. The memo's bytes are not charged
// to the memory budget; CarriedMemoBytes reports them.
//
// The park file is a checkpoint frame (wal.WriteCheckpoint) at the session's
// applied LSN, CRC-checked when it is read back, but it is written beside the
// log, not as a checkpoint generation: no fsync and no log rewrite. Those
// would put an fsync and a log rewrite on the request path that triggered the
// eviction: parking through checkpoint raised the market workload's
// next_p95_ms from a median of 31.9 to 47.3 ms over six alternating 10 s
// pairs (seeds 101–106, 2-vCPU Xeon), worse in five of the six.
func (m *Manager) park(v *entry) {
	v.mu.Lock()
	if v.deleted || v.sess == nil {
		v.mu.Unlock()
		m.mu.Lock()
		v.parking = false
		m.mu.Unlock()
		return
	}
	err := m.writeParkFile(v)
	if err == nil {
		v.memo = v.sess.TakeRankingMemo()
		atomic.AddInt64(&m.live.CarriedMemoBytes, v.memo.Bytes())
		v.sess = nil
		v.isParked = true
	}
	v.mu.Unlock()

	m.mu.Lock()
	v.parking = false
	if err == nil {
		m.resident -= v.bytes
		v.bytes = 0
		v.parkedAccounted = true
		m.parked++
		atomic.AddInt64(&m.live.Evictions, 1)
	}
	m.mu.Unlock()
}

// writeParkFile writes the session's snapshot framed as a checkpoint at its
// applied LSN, atomically: a temporary file, renamed into place without an
// fsync. The caller holds the entry's write lock.
func (m *Manager) writeParkFile(v *entry) error {
	snap, err := v.sess.Snapshot()
	if err != nil {
		return err
	}
	path := m.parkPath(v.name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = wal.WriteCheckpoint(f, v.lsn(), snap)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// readParkFile loads and verifies a parked session's frame and returns its
// snapshot. A damaged frame is a damaged snapshot: ErrBadSnapshot.
func (m *Manager) readParkFile(name string) ([]byte, error) {
	_, snap, err := readCheckpointFile(m.parkPath(name))
	if errors.Is(err, cverr.ErrBadWAL) {
		return nil, fmt.Errorf("%w: damaged park file (%v)", cverr.ErrBadSnapshot, err)
	}
	return snap, err
}

// AddAnswers folds new crowd answers into the named session (see
// Session.AddAnswers) and returns the session's total answer count.
//
// Concurrent AddAnswers calls for the same session queue tickets, and
// whichever request first acquires the session's write lock drains the
// whole queue. For sessions on the delta-incremental path (the default)
// the drained tickets are merged into one batch — a
// single delta re-aggregation instead of one per request — so requests that
// piled up behind a slow aggregation ride along for free; that is what
// keeps small-batch ingest throughput from collapsing under concurrency.
// Exact sessions (WithExact) are drained one ticket at a time in arrival order,
// preserving the documented bit-for-bit equivalence with a serial replay of
// the individual requests. Work done on behalf of other requests (merged
// batches, foreign tickets) deliberately ignores the drainer's own request
// cancellation; a request whose answers were merged observes the merged
// batch's outcome.
func (m *Manager) AddAnswers(ctx context.Context, name string, answers []crowdval.Answer) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	e, err := m.lookup(name)
	if err != nil {
		return 0, err
	}
	t := &ingestTicket{answers: answers, done: make(chan ingestOutcome, 1)}
	e.ingestMu.Lock()
	if m.maxIngestQ > 0 && len(e.ingestQueue) >= m.maxIngestQ {
		e.ingestMu.Unlock()
		atomic.AddInt64(&m.live.ShedIngests, 1)
		return 0, fmt.Errorf("%w: session %q has %d queued ingest requests", cverr.ErrOverloaded, name, m.maxIngestQ)
	}
	e.ingestQueue = append(e.ingestQueue, t)
	e.ingestMu.Unlock()

	if err := m.exclusive(e, name, func(s *crowdval.Session) error {
		m.drainIngest(ctx, t, e, s)
		return nil
	}); err != nil {
		// The session vanished (deleted) or could not be resumed — no drain
		// ran on this path. Fail only our own ticket (if an earlier drainer
		// has not already resolved it): other queued tickets belong to
		// requests whose own exclusive() attempt may still succeed, e.g.
		// after a transient unpark failure.
		m.failOwnIngest(e, t, err)
	}

	// Guaranteed to be resolved by now: either a drainer (possibly this
	// call) consumed the ticket under the write lock, or the failure path
	// above flushed the queue.
	out := <-t.done
	if out.err != nil {
		return 0, out.err
	}
	return out.total, nil
}

// drainIngest applies every queued ingest ticket of the entry — merged into
// one batch for delta sessions, one at a time in arrival order for
// full-path sessions — and resolves the tickets. It runs under the entry's
// write lock; the queue take is atomic, so no ticket is ever drained twice.
// own is the drainer's ticket: only that ticket's work may run under the
// drainer's cancellable ctx — and only when no WAL is configured, see
// ticketCtx — everything done on behalf of other requests runs
// cancellation-free (a drained queue can hold foreign tickets even when it
// has length one — the drainer's own may have been drained by an earlier
// lock holder).
func (m *Manager) drainIngest(ctx context.Context, own *ingestTicket, e *entry, s *crowdval.Session) {
	e.ingestMu.Lock()
	tickets := e.ingestQueue
	e.ingestQueue = nil
	e.ingestMu.Unlock()
	if len(tickets) == 0 {
		return
	}
	// With a WAL configured even the drainer's own ticket applies
	// cancellation-free: its record is logged (and will be replayed after a
	// crash) before AddAnswers runs, so a cancellation rollback of the live
	// apply would diverge recovered state from live state.
	ticketCtx := func(t *ingestTicket) context.Context {
		if t == own && e.log == nil {
			return ctx
		}
		return context.WithoutCancel(ctx)
	}

	// Coalescing changes the aggregation trajectory (one warm EM over the
	// union instead of one per batch), which is only on the table for
	// delta sessions, which give up bit-for-bit replay equivalence anyway.
	// Exact sessions drain sequentially.
	if len(tickets) == 1 || !s.DeltaIngestEnabled() {
		for _, t := range tickets {
			err := m.logMutation(e, answersRecord(t.answers))
			if err == nil {
				err = s.AddAnswers(ticketCtx(t), t.answers)
				m.accountIngest(1, 0, ingestedOnSuccess(err, len(t.answers)))
			}
			t.done <- ingestOutcome{total: s.AnswerCount(), err: err}
		}
		m.maybeCheckpoint(e)
		return
	}

	// Merged batch. It is applied under a cancellation-free context: the
	// work belongs to every merged client, not just the drainer, so one
	// client disconnecting must not abort the others' ingest mid-flight.
	merged := 0
	for _, t := range tickets {
		merged += len(t.answers)
	}
	batch := make([]crowdval.Answer, 0, merged)
	for _, t := range tickets {
		batch = append(batch, t.answers...)
	}
	// The WAL gets the *merged* batch — exactly what the live session is
	// about to apply — so replay walks the same aggregation trajectory. A log
	// failure fails every merged request; nothing was applied.
	if err := m.logMutation(e, answersRecord(batch)); err != nil {
		for _, t := range tickets {
			t.done <- ingestOutcome{err: err}
		}
		return
	}
	err := s.AddAnswers(context.WithoutCancel(ctx), batch)
	if err == nil {
		total := s.AnswerCount()
		m.accountIngest(1, int64(len(tickets)-1), int64(merged))
		for _, t := range tickets {
			t.done <- ingestOutcome{total: total}
		}
		m.maybeCheckpoint(e)
		return
	}
	// Session.AddAnswers validates every answer before mutating anything, so
	// a merged failure means some request carried an invalid answer and the
	// session is untouched. Re-apply per ticket: the error lands on the
	// request that caused it and the valid requests still go through. Each
	// retry is logged individually; the already-logged merged record replays
	// against the same pre-batch state and re-fails deterministically, so the
	// log still prescribes exactly the applied mutations.
	for _, t := range tickets {
		terr := m.logMutation(e, answersRecord(t.answers))
		if terr == nil {
			terr = s.AddAnswers(context.WithoutCancel(ctx), t.answers)
			m.accountIngest(1, 0, ingestedOnSuccess(terr, len(t.answers)))
		}
		t.done <- ingestOutcome{total: s.AnswerCount(), err: terr}
	}
	m.maybeCheckpoint(e)
}

// failOwnIngest removes the caller's own ticket from the queue and resolves
// it with err. A ticket no longer queued was already resolved by a drainer,
// whose outcome stands; tickets of other requests are left queued for their
// owners' own lock attempts.
func (m *Manager) failOwnIngest(e *entry, own *ingestTicket, err error) {
	e.ingestMu.Lock()
	for i, t := range e.ingestQueue {
		if t == own {
			e.ingestQueue = append(e.ingestQueue[:i], e.ingestQueue[i+1:]...)
			e.ingestMu.Unlock()
			own.done <- ingestOutcome{err: err}
			return
		}
	}
	e.ingestMu.Unlock()
}

// accountIngest updates the ingest counters: batches actually executed,
// requests that rode along in someone else's batch, answers ingested.
func (m *Manager) accountIngest(batches, coalesced, answers int64) {
	atomic.AddInt64(&m.live.IngestBatches, batches)
	atomic.AddInt64(&m.live.CoalescedIngests, coalesced)
	atomic.AddInt64(&m.live.IngestedAnswers, answers)
}

func ingestedOnSuccess(err error, n int) int64 {
	if err != nil {
		return 0
	}
	return int64(n)
}

// NextObjects returns the top k ranked candidates for the next expert
// validation in one scoring pass (see Session.NextObjectsContext); k = 1 is
// the single next-object selection. Candidate scoring is read-only session
// state access, so it is served under the session's read lock: concurrent
// selections and result views proceed in parallel instead of queueing behind
// the single-writer lock, and only the strategy's tiny stateful prologue
// (the hybrid roulette draw) is serialized inside the session itself. A
// parked session answers from its carried memo where that certifies k.
func (m *Manager) NextObjects(ctx context.Context, name string, k int) ([]crowdval.ScoredObject, error) {
	var ranked []crowdval.ScoredObject
	err := m.view(ctx, name, func(memo crowdval.RankingMemo) (ok bool) {
		ranked, ok = memo.Top(k)
		return ok
	}, func(s *crowdval.Session) error {
		var err error
		ranked, err = s.NextObjectsContext(ctx, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&m.live.Selections, 1)
	return ranked, nil
}

// GlobalNext is the marketplace read path: it ranks the next expert
// validations across *all* managed sessions and returns the global top k by
// expected information gain per unit cost. Each resident session is scored
// under its shared read lock with the cheap maintained-index NextObjects
// pass, scores are normalized by the session's monetary budget tracker
// (gain/θ; sessions without a budget use the default expert-to-crowd cost
// ratio), exhausted tenants are skipped, and the partial rankings merge
// under a total order — gain/cost descending, ties broken by session name
// then object ascending — so the result is deterministic and independent of
// enumeration order. Parked sessions are skipped unless includeParked is
// set, in which case each answers from its carried memo where that
// certifies k, and is resumed (counted as Resumes) and scored otherwise.
//
// Sessions that currently have nothing to offer — done, effort budget
// spent, no candidates — contribute nothing rather than failing the global
// answer; only cancellation and infrastructure errors abort.
func (m *Manager) GlobalNext(ctx context.Context, k int, includeParked bool) ([]crowdval.GlobalNextCandidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("server: global next needs k >= 1: %w", cverr.ErrBadRequest)
	}
	m.mu.Lock()
	entries := make([]*entry, 0, len(m.sessions))
	for _, e := range m.sessions {
		entries = append(entries, e)
	}
	m.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	var cands []crowdval.GlobalNextCandidate
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		per, err := m.sessionCandidates(ctx, e, k, includeParked)
		if err != nil {
			return nil, err
		}
		cands = append(cands, per...)
	}
	atomic.AddInt64(&m.live.GlobalSelections, 1)
	return crowdval.MergeGlobalNext(cands, k), nil
}

// sessionCandidates scores one session's top-k candidates for the global
// ranking, normalized to gain per unit cost. A resident session is read
// under the shared lock; a parked one is skipped unless resumeParked is set,
// and then answers from its carried memo (as in view) or is resumed.
// Deleted sessions and benign per-session exhaustion yield no candidates and
// no error.
func (m *Manager) sessionCandidates(ctx context.Context, e *entry, k int, resumeParked bool) ([]crowdval.GlobalNextCandidate, error) {
	var (
		ranked    []crowdval.ScoredObject
		tracker   crowdval.CostTracker
		hasBudget bool
	)
	fn := func(s *crowdval.Session) error {
		tracker, hasBudget = s.CostBudget()
		var err error
		ranked, err = s.NextObjectsContext(ctx, k)
		if errors.Is(err, cverr.ErrSessionDone) || errors.Is(err, cverr.ErrNoCandidates) ||
			errors.Is(err, cverr.ErrBudgetExhausted) {
			return nil
		}
		return err
	}

	e.mu.RLock()
	if e.deleted {
		e.mu.RUnlock()
		return nil, nil
	}
	var err error
	if e.sess != nil {
		err = fn(e.sess)
		m.foldSession(e, e.sess)
		e.mu.RUnlock()
	} else {
		memo := e.memo
		e.mu.RUnlock()
		if !resumeParked {
			return nil, nil
		}
		var ok bool
		if ranked, ok = memo.Top(k); ok {
			tracker, hasBudget = memo.CostBudget()
			atomic.AddInt64(&m.live.ParkedSelections, 1)
		} else if err = m.exclusive(e, e.name, fn); errors.Is(err, cverr.ErrSessionNotFound) {
			return nil, nil // deleted while we waited
		}
	}
	if err != nil {
		return nil, err
	}
	out := make([]crowdval.GlobalNextCandidate, len(ranked))
	for i, so := range ranked {
		gpc := so.Score / crowdval.DefaultExpertCrowdCostRatio
		if hasBudget {
			gpc = tracker.GainPerCost(so.Score)
		}
		out[i] = crowdval.GlobalNextCandidate{Session: e.name, Object: so.Object, Gain: so.Score, GainPerCost: gpc}
	}
	return out, nil
}

// SetBudget installs or replaces the monetary budget of the named session
// (see crowdval.Session.SetCostBudget: validations already spent are kept).
// The change is logged to the session's WAL before it applies, like every
// other mutation, so budget state survives a crash exactly.
func (m *Manager) SetBudget(ctx context.Context, name string, t crowdval.CostTracker) error {
	return m.updateLogged(ctx, name, budgetRecord(t), func(ctx context.Context, s *crowdval.Session) error {
		s.SetCostBudget(t)
		return nil
	})
}

// Submit integrates one expert validation.
func (m *Manager) Submit(ctx context.Context, name string, object int, label crowdval.Label) (crowdval.StepInfo, error) {
	var info crowdval.StepInfo
	err := m.updateLogged(ctx, name, submitRecord(object, label), func(ctx context.Context, s *crowdval.Session) error {
		var err error
		info, err = s.SubmitValidationContext(ctx, object, label)
		return err
	})
	if err != nil {
		return crowdval.StepInfo{}, err
	}
	atomic.AddInt64(&m.live.SubmittedValidations, 1)
	return info, nil
}

// SubmitBatch integrates a whole batch of expert validations transactionally
// (see Session.SubmitValidations).
func (m *Manager) SubmitBatch(ctx context.Context, name string, inputs []crowdval.ValidationInput) ([]crowdval.StepInfo, error) {
	var infos []crowdval.StepInfo
	err := m.updateLogged(ctx, name, submitBatchRecord(inputs), func(ctx context.Context, s *crowdval.Session) error {
		var err error
		infos, err = s.SubmitValidations(ctx, inputs)
		return err
	})
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&m.live.SubmittedValidations, int64(len(inputs)))
	return infos, nil
}

// Snapshot returns the session's encoded snapshot. A parked session is
// served straight from its park file without being resumed — explicitly
// snapshotting cold sessions (e.g. for backup or migration) costs one file
// read and checksum, not a resume/re-park cycle; a damaged park file fails
// with ErrBadSnapshot instead of handing out its bytes. The bytes are
// materialized under the session lock and returned, so callers can stream
// them to arbitrarily slow destinations without stalling the session's
// writers.
func (m *Manager) Snapshot(ctx context.Context, name string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := m.lookup(name)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	if e.deleted {
		e.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", cverr.ErrSessionNotFound, name)
	}
	if e.sess != nil {
		defer e.mu.RUnlock()
		return e.sess.Snapshot()
	}
	if e.isParked {
		defer e.mu.RUnlock()
		data, err := m.readParkFile(e.name)
		if err != nil {
			return nil, fmt.Errorf("server: reading park file of %q: %w", name, err)
		}
		return data, nil
	}
	e.mu.RUnlock()
	// Mid-creation placeholder: fall back to the shared view path, which
	// waits for the creation to settle.
	var data []byte
	err = m.view(ctx, name, nil, func(s *crowdval.Session) error {
		data, err = s.Snapshot()
		return err
	})
	return data, err
}

// View runs fn with shared (read) access to the named session, resuming it
// transparently when parked. fn must not mutate the session; writer
// operations go through the typed methods above.
func (m *Manager) View(ctx context.Context, name string, fn func(*crowdval.Session) error) error {
	return m.view(ctx, name, nil, fn)
}

// SessionInfo describes one managed session for listings.
type SessionInfo struct {
	Name   string `json:"name"`
	Parked bool   `json:"parked"`
	Bytes  int64  `json:"bytes"`
}

// Sessions lists the managed sessions in most-recently-used order. It reads
// only manager-guarded state, so a listing never waits behind an in-flight
// session operation.
func (m *Manager) Sessions() []SessionInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	infos := make([]SessionInfo, 0, m.lru.Len())
	for el := m.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		infos = append(infos, SessionInfo{Name: e.name, Parked: e.parkedAccounted, Bytes: e.bytes})
	}
	return infos
}

// Stats is the manager's aggregate state for the metrics endpoints. Each
// numeric field is one metric: its json tag names it in GET /v1/metrics, its
// prom and help tags declare it in GET /metrics (see RenderPrometheus).
// Adding a metric means adding one tagged field here plus its increment,
// atomic.AddInt64(&m.live.<Field>, n); a session statistic is instead one
// field of crowdval.SessionCounters, which foldSession sums into the
// same-named field here.
type Stats struct {
	// Sessions is the total number of managed sessions; Resident of them are
	// in memory and Parked on disk.
	Sessions int64 `json:"sessions" prom:"crowdval_sessions,gauge" help:"Managed sessions."`
	Resident int64 `json:"resident" prom:"crowdval_sessions_resident,gauge" help:"Sessions resident in memory."`
	Parked   int64 `json:"parked" prom:"crowdval_sessions_parked,gauge" help:"Sessions parked to disk."`
	// ResidentBytes is the estimated memory of resident session state;
	// MemoryBudget is the configured cap (0 = unlimited).
	ResidentBytes int64 `json:"residentBytes" prom:"crowdval_resident_bytes,gauge" help:"Estimated bytes of resident session state."`
	MemoryBudget  int64 `json:"memoryBudget" prom:"crowdval_memory_budget_bytes,gauge" help:"Configured resident-memory budget (0 = unlimited)."`
	// Cumulative operation counters. IngestBatches counts the AddAnswers
	// calls actually executed against sessions; CoalescedIngests counts the
	// ingest requests that were merged into another request's batch, so
	// requests = IngestBatches + CoalescedIngests (modulo per-ticket
	// fallbacks after a rejected merge).
	IngestedAnswers      int64 `json:"ingestedAnswers" prom:"crowdval_ingested_answers_total,counter" help:"Crowd answers ingested."`
	IngestBatches        int64 `json:"ingestBatches" prom:"crowdval_ingest_batches_total,counter" help:"AddAnswers batches executed against sessions."`
	CoalescedIngests     int64 `json:"coalescedIngests" prom:"crowdval_coalesced_ingests_total,counter" help:"Ingest requests merged into another request's batch."`
	SubmittedValidations int64 `json:"submittedValidations" prom:"crowdval_validations_total,counter" help:"Expert validations submitted."`
	Selections           int64 `json:"selections" prom:"crowdval_selections_total,counter" help:"Next-object selections served."`
	// GlobalSelections counts served marketplace reads (GET /v1/next), each
	// of which merges per-session rankings into one global answer.
	GlobalSelections int64 `json:"globalSelections" prom:"crowdval_global_selections_total,counter" help:"Global cross-session rankings served (GET /v1/next)."`
	// BudgetRemaining is the summed monetary budget remaining across all
	// budgeted sessions (θ · validations still affordable, bounded by the
	// configured totals). Sessions without a cost budget contribute zero.
	BudgetRemaining float64 `json:"budgetRemaining" prom:"crowdval_budget_remaining,gauge" help:"Summed monetary budget remaining across budgeted sessions."`
	Evictions       int64   `json:"evictions" prom:"crowdval_evictions_total,counter" help:"Sessions parked to disk under memory pressure."`
	Resumes         int64   `json:"resumes" prom:"crowdval_resumes_total,counter" help:"Parked sessions resumed on touch."`
	// ParkedSelections counts the selections a parked session answered from
	// its carried ranking memo, with no resume.
	ParkedSelections int64 `json:"parkedSelections" prom:"crowdval_parked_selections_total,counter" help:"Selections a parked session answered from its carried ranking memo, without resuming."`
	// MemoResumes counts the resumes that adopted the ranking memo carried
	// from the park (their next selection re-ranks nothing);
	// CarriedMemoBytes is the memory those memos hold while their sessions
	// are parked, outside MemoryBudget.
	MemoResumes      int64 `json:"memoResumes" prom:"crowdval_memo_resumes_total,counter" help:"Resumes that adopted the ranking memo carried from the park."`
	CarriedMemoBytes int64 `json:"carriedMemoBytes" prom:"crowdval_carried_memo_bytes,gauge" help:"Bytes of ranking memos carried by parked sessions; not charged to the memory budget."`
	EMIterations     int64 `json:"emIterations" prom:"crowdval_em_iterations_total,counter" help:"Full EM iterations run across all sessions."`
	// DeltaIterations is the cumulative count of frontier-restricted
	// iterations run by delta-incremental sessions (the default; see
	// WithDeltaIngest).
	DeltaIterations int64 `json:"deltaIterations" prom:"crowdval_delta_iterations_total,counter" help:"Frontier-restricted delta iterations run across all sessions."`
	// DeltaAccepted/DeltaStalled/DeltaLargeFrontier count the delta-path
	// aggregations by outcome (aggregation.DeltaOutcome): the frontier phase
	// converged, or hit its iteration cap before the settle phase; or the
	// call fell back to a full aggregation because the frontier was too
	// large.
	// A rising fallback share means delta sessions are paying exact-path
	// costs.
	DeltaAccepted      int64 `json:"deltaAccepted" prom:"crowdval_delta_accepted_total,counter" help:"Delta aggregations whose frontier phase converged."`
	DeltaStalled       int64 `json:"deltaStalled" prom:"crowdval_delta_stalled_total,counter" help:"Delta aggregations whose frontier phase hit its iteration cap before the settle phase."`
	DeltaLargeFrontier int64 `json:"deltaLargeFrontier" prom:"crowdval_delta_large_frontier_total,counter" help:"Delta aggregations that fell back to a full aggregation on an oversized frontier."`
	// ShedIngests counts AddAnswers requests rejected with ErrOverloaded
	// because a session's ingest queue was at its configured bound.
	ShedIngests int64 `json:"shedIngests" prom:"crowdval_shed_ingests_total,counter" help:"Ingest requests shed with ErrOverloaded (HTTP 429)."`
	// ScoreIndexBuilds/ScoreIndexPatches count, across all sessions, how
	// often a selection allocated and built the guidance scoring index
	// versus refilling the maintained one in place (Session.Counters); a
	// patch-dominated ratio means selections reuse their sessions' index
	// buffers, and builds come from first selections, growth and resumes.
	ScoreIndexBuilds  int64 `json:"scoreIndexBuilds" prom:"crowdval_score_index_builds_total,counter" help:"Guidance scoring indexes built from scratch."`
	ScoreIndexPatches int64 `json:"scoreIndexPatches" prom:"crowdval_score_index_patches_total,counter" help:"Guidance scoring indexes patched in place (maintained view)."`
	// RankCandidatesScored/RankCandidatesPruned count, across all sessions,
	// the ranking candidates scored exactly and those a fresh ranking left
	// at an upper bound below its top k (Session.Counters); the pruned
	// share is the work the early stop saved.
	RankCandidatesScored int64 `json:"rankCandidatesScored" prom:"crowdval_rank_candidates_scored_total,counter" help:"Ranking candidates scored exactly."`
	RankCandidatesPruned int64 `json:"rankCandidatesPruned" prom:"crowdval_rank_candidates_pruned_total,counter" help:"Ranking candidates left unscored at an upper bound below the top k."`
	// Durability counters; all zero when the manager runs without a WAL.
	// WALRecords/WALBytes/WALSyncs are cumulative appender totals across all
	// sessions; Checkpoints/CheckpointFailures count snapshot-checkpoint
	// rotations; RecoveredSessions/ReplayedRecords describe the crash
	// recovery this process performed at boot.
	WALRecords         int64 `json:"walRecords" prom:"crowdval_wal_records_total,counter" help:"Records appended to session write-ahead logs."`
	WALBytes           int64 `json:"walBytes" prom:"crowdval_wal_bytes_total,counter" help:"Bytes written to session write-ahead logs."`
	WALSyncs           int64 `json:"walSyncs" prom:"crowdval_wal_fsyncs_total,counter" help:"Fsyncs issued by session write-ahead logs."`
	Checkpoints        int64 `json:"checkpoints" prom:"crowdval_checkpoints_total,counter" help:"Snapshot checkpoints written (with log truncation)."`
	CheckpointFailures int64 `json:"checkpointFailures" prom:"crowdval_checkpoint_failures_total,counter" help:"Snapshot checkpoints that failed (log left untruncated)."`
	RecoveredSessions  int64 `json:"recoveredSessions" prom:"crowdval_recovered_sessions,gauge" help:"Sessions rebuilt from WAL recovery at boot."`
	ReplayedRecords    int64 `json:"replayedRecords" prom:"crowdval_replayed_records,gauge" help:"WAL records replayed during boot recovery."`
	// Health state machine (see health.go). WALDegradedSessions and
	// WALFailStopSessions are current-state gauges; DegradeEvents, WALHeals,
	// ProbeFailures and ENOSPCReclaims are cumulative counters. A reclaim is
	// a full-disk append that recovered by checkpoint-and-truncate without
	// ever degrading.
	WALDegradedSessions int64 `json:"walDegradedSessions" prom:"crowdval_wal_degraded_sessions,gauge" help:"Sessions in degraded read-only mode after a durability failure."`
	WALFailStopSessions int64 `json:"walFailStopSessions" prom:"crowdval_wal_failstop_sessions,gauge" help:"Sessions fail-stopped until restart (durable log inconsistent)."`
	DegradeEvents       int64 `json:"degradeEvents" prom:"crowdval_wal_degrade_events_total,counter" help:"Transitions of a session into degraded read-only mode."`
	WALHeals            int64 `json:"walHeals" prom:"crowdval_wal_heals_total,counter" help:"Degraded sessions healed back to healthy by the probe loop."`
	ProbeFailures       int64 `json:"probeFailures" prom:"crowdval_wal_probe_failures_total,counter" help:"Health probe writes that failed (disk still unavailable)."`
	ENOSPCReclaims      int64 `json:"enospcReclaims" prom:"crowdval_wal_enospc_reclaims_total,counter" help:"Successful checkpoint-and-truncate reclaims after ENOSPC."`
}

// Stats samples the manager's aggregate state. The table-derived values
// (sessions, residency, budget) are read together under the manager's lock;
// the counters are loaded atomically one by one — a scrape never waits
// behind an in-flight fsync — so they can trail each other by a few
// operations; every counter is individually monotone.
func (m *Manager) Stats() Stats {
	s := LoadStats(&m.live)
	m.mu.Lock()
	defer m.mu.Unlock()
	s.Sessions = int64(len(m.sessions))
	s.Resident = int64(len(m.sessions)) - m.parked
	s.Parked = m.parked
	s.ResidentBytes = m.resident
	s.MemoryBudget = m.budget
	s.BudgetRemaining = m.budgetRemaining
	return s
}
