// Command crowdval is the command-line interface of the answer-validation
// library. It generates synthetic crowdsourcing datasets, runs guided
// validation sessions against a stored ground truth, audits the worker
// community, reports dataset statistics, and serves many concurrent
// validation sessions over HTTP.
//
// Usage:
//
//	crowdval generate -out data.json -objects 100 -workers 25 -labels 2
//	crowdval generate -out data.json -profile bb
//	crowdval validate -in data.json -out validated.json -budget 20 -strategy hybrid
//	crowdval validate -in data.json -resume session.cvsn -snapshot-out session.cvsn
//	crowdval workers  -in validated.json
//	crowdval stats    -in data.json
//	crowdval serve    -addr 127.0.0.1:8080 -memory-budget 268435456
//	crowdval serve    -wal-dir ./wal -wal-sync always -checkpoint-every 256
//	crowdval serve    -addr :7001 -wal-dir ./wal -peers host1:7001,host2:7001,host3:7001
//	crowdval serve    -addr :7002 -wal-dir ./wal -peers ... -follow host1:7001
//	crowdval route    -addr :8080 -peers host1:7001,host2:7001,host3:7001
//	crowdval recover  -wal-dir ./wal
//	crowdval next     -addr 127.0.0.1:8080 -k 10
//	crowdval loadgen  -sessions 4 -clients 8 -batch 100
//	crowdval loadgen  -addr host1:7001,host2:7001,host3:7001 -sessions 6
//	crowdval profiles
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crowdval"
	"crowdval/internal/cluster"
	"crowdval/internal/dataset"
	"crowdval/internal/fault"
	"crowdval/internal/metrics"
	"crowdval/internal/server"
	"crowdval/internal/simulation"
	"crowdval/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		// Errors wrapping one of the library's sentinels are reported with
		// the sentinel's name, giving scripts a stable string to match.
		if name := crowdval.ErrorName(err); name != "" {
			fmt.Fprintf(os.Stderr, "error: %s: %v\n", name, err)
		} else {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return usageError()
	}
	switch args[0] {
	case "generate":
		return cmdGenerate(args[1:], out)
	case "validate":
		return cmdValidate(args[1:], out)
	case "workers":
		return cmdWorkers(args[1:], out)
	case "stats":
		return cmdStats(args[1:], out)
	case "serve":
		return cmdServe(args[1:], out)
	case "route":
		return cmdRoute(args[1:], out)
	case "recover":
		return cmdRecover(args[1:], out)
	case "next":
		return cmdNext(args[1:], out)
	case "loadgen":
		return cmdLoadgen(args[1:], out)
	case "profiles":
		return cmdProfiles(out)
	case "help", "-h", "--help":
		return usageError()
	default:
		return fmt.Errorf("unknown command %q (try: generate, validate, workers, stats, serve, route, recover, next, loadgen, profiles)", args[0])
	}
}

func usageError() error {
	return fmt.Errorf("usage: crowdval <generate|validate|workers|stats|serve|route|recover|next|loadgen|profiles> [flags]")
}

// splitPeers parses a comma-separated address list, trimming blanks.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

func cmdGenerate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	var (
		outPath  = fs.String("out", "", "output dataset file (JSON)")
		profile  = fs.String("profile", "", "dataset profile to mimic (bb, rte, val, twt, art)")
		objects  = fs.Int("objects", 50, "number of objects")
		workers  = fs.Int("workers", 20, "number of workers")
		labels   = fs.Int("labels", 2, "number of labels")
		perObj   = fs.Int("answers-per-object", 0, "answers per object (0 = all workers answer)")
		accuracy = fs.Float64("reliability", 0.7, "accuracy of normal workers")
		spammers = fs.Float64("spammers", 0.25, "fraction of spammers in the crowd")
		seed     = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("generate: -out is required")
	}
	var (
		d   *simulation.Dataset
		err error
	)
	if *profile != "" {
		d, err = simulation.GenerateProfile(*profile, *seed)
	} else {
		normal := 1 - *spammers - 0.25
		if normal < 0 {
			normal = 0
		}
		d, err = simulation.GenerateCrowd(simulation.CrowdConfig{
			NumObjects:       *objects,
			NumWorkers:       *workers,
			NumLabels:        *labels,
			AnswersPerObject: *perObj,
			NormalAccuracy:   *accuracy,
			Mix: simulation.WorkerMix{
				Normal: normal, Sloppy: 0.25,
				UniformSpammer: *spammers / 2, RandomSpammer: *spammers / 2,
			},
			Seed: *seed,
		})
	}
	if err != nil {
		return err
	}
	if err := dataset.Save(*outPath, &dataset.File{Dataset: d}); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d objects, %d workers, %d labels, %d answers\n",
		*outPath, d.Answers.NumObjects(), d.Answers.NumWorkers(), d.Answers.NumLabels(), d.Answers.AnswerCount())
	return nil
}

func cmdValidate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	var (
		inPath      = fs.String("in", "", "input dataset file")
		outPath     = fs.String("out", "", "output file for the validated dataset (optional)")
		budget      = fs.Int("budget", 0, "maximum number of expert validations (0 = all objects)")
		strategy    = fs.String("strategy", "hybrid", "guidance strategy: hybrid, uncertainty, worker, baseline, random")
		limit       = fs.Int("candidate-limit", 8, "candidates scored per iteration (0 = all)")
		period      = fs.Int("confirmation-period", 0, "confirmation-check period (0 = disabled)")
		seed        = fs.Int64("seed", 1, "random seed")
		parallelism = fs.Int("parallelism", 0, "goroutines for sharded aggregation and detection (0 = GOMAXPROCS, 1 = serial; results are identical for every setting)")
		timeout     = fs.Duration("timeout", 0, "abort the whole validation run after this duration (0 = no limit)")
		resumePath  = fs.String("resume", "", "resume the session from this snapshot file instead of starting fresh (options come from the snapshot; -budget and -parallelism may override)")
		snapOut     = fs.String("snapshot-out", "", "write the session snapshot to this file when the run ends (resume later with -resume)")
		exact       = fs.Bool("exact", false, "run the paper's literal i-EM: full warm-EM aggregation after every validation and exact candidate scoring, instead of the default delta paths")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("validate: -in is required")
	}
	if *exact && *resumePath != "" {
		return fmt.Errorf("validate: -exact cannot be combined with -resume: a resumed session keeps the mode its snapshot records")
	}
	file, err := dataset.Load(*inPath)
	if err != nil {
		return err
	}
	if len(file.Dataset.Truth) == 0 {
		return fmt.Errorf("validate: the dataset has no ground truth to simulate the expert with")
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var session *crowdval.Session
	if *resumePath != "" {
		snap, err := os.ReadFile(*resumePath)
		if err != nil {
			return fmt.Errorf("validate: %w", err)
		}
		// The snapshot carries the session options; the flags may override the
		// process-local parallelism knob (bitwise neutral) and the budget
		// (to grant a resumed session more expert effort).
		resumeOpts := []crowdval.Option{crowdval.WithParallelism(*parallelism)}
		if *budget > 0 {
			resumeOpts = append(resumeOpts, crowdval.WithBudget(*budget))
		}
		session, err = crowdval.ResumeSession(snap, resumeOpts...)
		if err != nil {
			return fmt.Errorf("validate: resuming %s: %w", *resumePath, err)
		}
		if session.NumObjects() != len(file.Dataset.Truth) {
			return fmt.Errorf("validate: %w: snapshot covers %d objects, dataset has %d",
				crowdval.ErrDimensionMismatch, session.NumObjects(), len(file.Dataset.Truth))
		}
	} else {
		opts := []crowdval.Option{
			crowdval.WithStrategy(crowdval.StrategyName(*strategy)),
			crowdval.WithCandidateLimit(*limit),
			crowdval.WithSeed(*seed),
			crowdval.WithParallelism(*parallelism),
			// Covers the initial cold aggregation inside NewSession too, so the
			// deadline bounds the whole run, not just the validation loop.
			crowdval.WithContext(ctx),
		}
		if *budget > 0 {
			opts = append(opts, crowdval.WithBudget(*budget))
		}
		if *period > 0 {
			opts = append(opts, crowdval.WithConfirmationCheck(*period))
		}
		if *exact {
			opts = append(opts, crowdval.WithExact())
		}
		session, err = crowdval.NewSession(file.Dataset.Answers, opts...)
		if err != nil {
			return err
		}
	}
	initialPrecision := metrics.Precision(session.Result(), file.Dataset.Truth)
	fmt.Fprintf(out, "initial precision (no expert input): %.3f\n", initialPrecision)

	for !session.Done() {
		object, err := session.NextObjectContext(ctx)
		if err != nil {
			return err
		}
		info, err := session.SubmitValidationContext(ctx, object, file.Dataset.Truth[object])
		if err != nil {
			return err
		}
		precision := metrics.Precision(session.Result(), file.Dataset.Truth)
		fmt.Fprintf(out, "validation %3d: object %4d -> label %d | precision %.3f | uncertainty %.3f | faulty workers %d\n",
			session.EffortSpent(), info.Object, info.Label, precision, info.Uncertainty, info.FaultyWorkers)
	}

	finalPrecision := metrics.Precision(session.Result(), file.Dataset.Truth)
	fmt.Fprintf(out, "finished: %d validations (%.0f%% of objects), precision %.3f -> %.3f\n",
		session.EffortSpent(), session.EffortRatio()*100, initialPrecision, finalPrecision)

	if *outPath != "" {
		file.Validation = session.Validation()
		if err := dataset.Save(*outPath, file); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote validated dataset to %s\n", *outPath)
	}
	if *snapOut != "" {
		if err := writeSnapshot(*snapOut, session); err != nil {
			return fmt.Errorf("validate: writing snapshot: %w", err)
		}
		fmt.Fprintf(out, "wrote session snapshot to %s\n", *snapOut)
	}
	return nil
}

// writeSnapshot writes the session's snapshot to <path>.tmp and renames it
// over path, so a failed write leaves the previous file — possibly the
// snapshot this run resumed from — intact.
func writeSnapshot(path string, session *crowdval.Session) error {
	snap, err := session.Snapshot()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, snap, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address of the HTTP serving layer")
		budget    = fs.Int64("memory-budget", 0, "estimated bytes of resident session state before cold sessions are parked to disk (0 = unlimited)")
		parkDir   = fs.String("park-dir", "", "directory for parked session snapshots (default: a fresh temporary directory)")
		walDir    = fs.String("wal-dir", "", "directory for per-session write-ahead logs; enables durability and boot-time crash recovery (empty = WAL off)")
		walSync   = fs.String("wal-sync", "interval", "WAL fsync policy: always (every record), interval (every N records), off (kernel writeback only)")
		ckptEvery = fs.Int("checkpoint-every", 0, "records between snapshot checkpoints that truncate a session's log (0 = default, negative = never)")
		maxQueued = fs.Int("max-queued-ingest", 0, "per-session bound on queued ingest requests before AddAnswers is shed with HTTP 429 (0 = unbounded)")
		peers     = fs.String("peers", "", "comma-separated fabric member addresses (host:port); joins this node to a session fabric (requires -wal-dir)")
		advertise = fs.String("advertise", "", "address this node advertises to the fabric (default: -addr)")
		follow    = fs.String("follow", "", "leader address whose sessions this node replicates as a promotable follower (requires -peers)")
		drain     = fs.Bool("drain", false, "on shutdown, hand every owned session to the next preferred peer before exiting (requires -peers)")

		readHeaderTimeout = fs.Duration("read-header-timeout", 10*time.Second, "time allowed to read a request's headers before the connection is dropped (slowloris guard)")
		readTimeout       = fs.Duration("read-timeout", 2*time.Minute, "time allowed to read an entire request, body included (0 = unlimited)")
		writeTimeout      = fs.Duration("write-timeout", 0, "time allowed to write a response (0 = unlimited; the default, because fabric WAL subscribe streams are long-lived responses)")
		idleTimeout       = fs.Duration("idle-timeout", 2*time.Minute, "how long an idle keep-alive connection is retained (0 = unlimited)")

		probeInterval = fs.Duration("probe-interval", 0, "interval of the WAL health probe that re-tests degraded sessions and heals them once writes succeed again (0 = default 1s; requires -wal-dir)")
		faultInject   = fs.Bool("enable-fault-injection", false, "thread a fault injector through the WAL I/O and mount POST /internal/v1/faults to arm disk faults at runtime (chaos testing only, never in production)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peers == "" && (*follow != "" || *drain) {
		return fmt.Errorf("serve: -follow and -drain require -peers")
	}
	if *peers != "" && *walDir == "" {
		return fmt.Errorf("serve: -peers requires -wal-dir (handoff and replication stream the per-session WAL)")
	}
	dir := *parkDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "crowdval-park-")
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		dir = tmp
	}
	cfg := server.ManagerConfig{
		MemoryBudget:    *budget,
		ParkDir:         dir,
		CheckpointEvery: *ckptEvery,
		MaxQueuedIngest: *maxQueued,
		// In a fabric, flush each record so followers tailing the log see
		// acknowledged mutations immediately (visibility, not durability).
		WALFlushEachRecord: *peers != "",
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		cfg = cfg.WithWAL(*walDir, policy)
	}
	var injector *fault.Injector
	if *faultInject {
		injector = fault.NewInjector()
		cfg.FaultInjector = injector
	}
	manager, err := server.NewManager(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	api := server.New(manager)
	if *walDir != "" {
		report, err := manager.Recover(ctx)
		if err != nil {
			return fmt.Errorf("serve: recovering sessions: %w", err)
		}
		printRecoveryReport(out, report)
	}
	// Readiness flips only after recovery finished: /readyz gates traffic
	// behind a warm, replayed session set.
	api.SetReady(true)
	if *walDir != "" {
		// Self-healing: degraded sessions are re-probed until writes succeed
		// again, then healed in place — no restart needed.
		go manager.HealthLoop(ctx, *probeInterval)
	}

	var handler http.Handler = api
	var node *cluster.Node
	var followStop context.CancelFunc
	followDone := make(chan struct{})
	close(followDone)
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = *addr
		}
		n, err := cluster.NewNode(cluster.NodeConfig{
			Self: self, Peers: splitPeers(*peers),
			Manager: manager, Server: api,
		})
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		node, handler = n, n
		if *follow != "" {
			f, err := cluster.NewFollower(cluster.FollowerConfig{Manager: manager, Leader: *follow})
			if err != nil {
				return fmt.Errorf("serve: %w", err)
			}
			node.AttachFollower(f)
			followCtx, cancel := context.WithCancel(context.Background())
			followStop = cancel
			followDone = make(chan struct{})
			go func() {
				f.Run(followCtx)
				close(followDone)
			}()
		}
	}

	if injector != nil {
		handler = withFaultAdmin(handler, injector)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(out, "serving crowdval sessions on http://%s (park dir %s)\n", *addr, dir)
	if injector != nil {
		fmt.Fprintf(out, "fault injection: ENABLED (POST http://%s/internal/v1/faults)\n", *addr)
	}
	if *walDir != "" {
		fmt.Fprintf(out, "durability: WAL in %s, sync policy %s\n", *walDir, *walSync)
	}
	if node != nil {
		fmt.Fprintf(out, "fabric: node %s of %d peers", node.Self(), len(node.Ring().Peers()))
		if *follow != "" {
			fmt.Fprintf(out, ", following %s", *follow)
		}
		fmt.Fprintln(out)
	}
	select {
	case <-ctx.Done():
		// Stop applying replicated records before shutting down, so the
		// local state is quiescent for the final flush.
		if followStop != nil {
			followStop()
			<-followDone
		}
		if node != nil && *drain {
			drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			derr := node.Drain(drainCtx)
			cancel()
			if derr != nil {
				fmt.Fprintf(out, "drain: %v (undrained sessions recover from the WAL on restart)\n", derr)
			} else {
				fmt.Fprintf(out, "drain: %d sessions handed off\n", node.Stats().HandoffsOut)
			}
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		// In-flight requests are done: flush and fsync the session WALs so a
		// graceful restart loses nothing (the buffered-records risk window of
		// the interval/off sync policies is for crashes only).
		if cerr := manager.Close(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	case err := <-errc:
		if followStop != nil {
			followStop()
			<-followDone
		}
		_ = manager.Close()
		return err
	}
}

// cmdRoute runs the routing tier: a stateless proxy that consistent-hashes
// each request's session name onto the fabric, follows HTTP 421 ownership
// redirects, and fails over past dead nodes. Run several for availability —
// routers share no state.
func cmdRoute(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	var (
		addr  = fs.String("addr", "127.0.0.1:8080", "listen address of the routing tier")
		peers = fs.String("peers", "", "comma-separated fabric node addresses to route across (required)")

		// The router proxies only the bounded public API (no long-lived
		// streams), so unlike serve it can afford a write timeout.
		readHeaderTimeout = fs.Duration("read-header-timeout", 10*time.Second, "time allowed to read a request's headers before the connection is dropped (slowloris guard)")
		readTimeout       = fs.Duration("read-timeout", 2*time.Minute, "time allowed to read an entire request, body included (0 = unlimited)")
		writeTimeout      = fs.Duration("write-timeout", 2*time.Minute, "time allowed to write a response (0 = unlimited)")
		idleTimeout       = fs.Duration("idle-timeout", 2*time.Minute, "how long an idle keep-alive connection is retained (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peers == "" {
		return fmt.Errorf("route: -peers is required")
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Peers: splitPeers(*peers)})
	if err != nil {
		return fmt.Errorf("route: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(out, "routing crowdval sessions on http://%s across %d nodes\n", *addr, len(splitPeers(*peers)))
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	case err := <-errc:
		return err
	}
}

// cmdRecover replays the write-ahead logs of a crashed server offline: every
// session is rebuilt exactly as `serve -wal-dir` would at boot — newest
// intact checkpoint plus log-tail replay — and each recovered session is
// re-checkpointed with a rotated, torn-tail-free log. Running it is optional
// (serve recovers on its own); it exists to inspect what a restart would
// recover, and to repair logs without starting a server.
func cmdRecover(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("recover", flag.ContinueOnError)
	var (
		walDir  = fs.String("wal-dir", "", "directory of the write-ahead logs to recover (required)")
		parkDir = fs.String("park-dir", "", "directory for parked session snapshots during recovery (default: a fresh temporary directory)")
		timeout = fs.Duration("timeout", 0, "abort recovery after this duration (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *walDir == "" {
		return fmt.Errorf("recover: -wal-dir is required")
	}
	dir := *parkDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "crowdval-park-")
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		dir = tmp
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	manager, err := server.NewManager(server.ManagerConfig{ParkDir: dir}.WithWAL(*walDir, wal.SyncPolicy{Mode: wal.SyncAlways}))
	if err != nil {
		return err
	}
	report, err := manager.Recover(ctx)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	printRecoveryReport(out, report)
	for _, r := range report {
		if r.Err != nil {
			return fmt.Errorf("recover: session %q: %w", r.Name, r.Err)
		}
	}
	return nil
}

// cmdNext queries a serving node (or a router, which fans it out across the
// fabric) for the global cross-session ranking of the next expert
// validations — the marketplace view: which object of which tenant buys the
// most expected information per unit cost right now.
func cmdNext(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("next", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:8080", "address of a crowdval server or router")
		k       = fs.Int("k", 10, "number of global candidates to return")
		parked  = fs.Bool("parked", false, "scan parked sessions too (resumes them)")
		timeout = fs.Duration("timeout", 30*time.Second, "request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *k < 1 {
		return fmt.Errorf("next: -k must be >= 1")
	}
	url := fmt.Sprintf("http://%s/v1/next?k=%d", *addr, *k)
	if *parked {
		url += "&parked=1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("next: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("next: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return fmt.Errorf("next: %s returned %s: %s", *addr, resp.Status, strings.TrimSpace(string(body)))
	}
	var body server.GlobalNextResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("next: decoding response: %w", err)
	}
	if len(body.Candidates) == 0 {
		fmt.Fprintln(out, "no candidates: every session is done, exhausted, or absent")
		return nil
	}
	fmt.Fprintf(out, "%-4s %-24s %-8s %-12s %s\n", "#", "SESSION", "OBJECT", "GAIN/COST", "GAIN")
	for i, c := range body.Candidates {
		fmt.Fprintf(out, "%-4d %-24s %-8d %-12.6g %.6g\n", i+1, c.Session, c.Object, c.GainPerCost, c.Gain)
	}
	return nil
}

func printRecoveryReport(out io.Writer, report []server.RecoveredSession) {
	if len(report) == 0 {
		return
	}
	ok := 0
	for _, r := range report {
		if r.Err != nil {
			fmt.Fprintf(out, "recovery: session %q FAILED: %v\n", r.Name, r.Err)
			continue
		}
		ok++
		detail := ""
		if r.UsedFallback {
			detail += ", fell back to previous checkpoint"
		}
		if r.TornTail {
			detail += ", dropped torn tail"
		}
		fmt.Fprintf(out, "recovery: session %q: checkpoint LSN %d + %d replayed records -> LSN %d%s\n",
			r.Name, r.CheckpointLSN, r.Replayed, r.LastLSN, detail)
	}
	fmt.Fprintf(out, "recovery: %d/%d sessions recovered\n", ok, len(report))
}

func cmdWorkers(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("workers", flag.ContinueOnError)
	inPath := fs.String("in", "", "input dataset file (with validations)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("workers: -in is required")
	}
	file, err := dataset.Load(*inPath)
	if err != nil {
		return err
	}
	assessments, err := crowdval.AssessWorkers(file.Dataset.Answers, file.Validation)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-8s %-16s %-10s %-10s %-8s\n", "worker", "validated", "spam-score", "error-rate", "verdict")
	for _, a := range assessments {
		verdict := "ok"
		switch {
		case a.Spammer:
			verdict = "spammer"
		case a.Sloppy:
			verdict = "sloppy"
		case a.ValidatedAnswers < 2:
			verdict = "unknown"
		}
		fmt.Fprintf(out, "%-8d %-16d %-10.3f %-10.3f %-8s\n",
			a.Worker, a.ValidatedAnswers, a.SpammerScore, a.ErrorRate, verdict)
	}
	return nil
}

func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	inPath := fs.String("in", "", "input dataset file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("stats: -in is required")
	}
	file, err := dataset.Load(*inPath)
	if err != nil {
		return err
	}
	a := file.Dataset.Answers
	fmt.Fprintf(out, "dataset:   %s\n", file.Dataset.Name)
	fmt.Fprintf(out, "objects:   %d\n", a.NumObjects())
	fmt.Fprintf(out, "workers:   %d\n", a.NumWorkers())
	fmt.Fprintf(out, "labels:    %d\n", a.NumLabels())
	fmt.Fprintf(out, "answers:   %d (sparsity %.2f)\n", a.AnswerCount(), a.Sparsity())
	fmt.Fprintf(out, "validated: %d objects\n", file.Validation.Count())
	if len(file.Dataset.Truth) > 0 {
		mv, err := crowdval.MajorityVote(a)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "majority-vote precision: %.3f\n", metrics.Precision(mv, file.Dataset.Truth))
		probSet, err := crowdval.Aggregate(a, file.Validation, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "i-EM precision:          %.3f\n", metrics.Precision(probSet.Instantiate(), file.Dataset.Truth))
		fmt.Fprintf(out, "uncertainty:             %.3f\n", crowdval.Uncertainty(probSet))
	}
	return nil
}

func cmdProfiles(out io.Writer) error {
	fmt.Fprintln(out, "available dataset profiles (sizes follow Table 4 of the paper):")
	for _, name := range simulation.ProfileNames() {
		p, err := simulation.Profile(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %-4s %-45s %4d objects, %3d workers, %d labels\n",
			p.Name, p.Domain, p.Objects, p.Workers, p.Labels)
	}
	return nil
}
