// Command perfbench is crowdval's serving benchmark. It starts an in-process
// crowdval server, drives it over loopback HTTP with one of two workloads
// (validate, market), checks every acknowledged output against a
// serial library replay, and prints each metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// additionally replays the recorded operation streams one layer at a time and
// reports the per-layer metrics instead. A fuller record of every run (run
// context, the workload's own metric names, sample counts) is written to
// .bench_build/results under -root. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload validate --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// holdoutSeed is the held-out workload seed: a claimed gain measured on
// other seeds must also hold on this one.
const holdoutSeed = 7919

// metricDef declares one reported metric. Each metric is declared once, in
// endToEnd or perLayer; BENCHMARK.json lists the same names.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run. Every workload reports every
// one of them; README.md gives what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"precision", "ratio"},
	{"next_p95_ms", "ms"},
	{"op_p95_ms", "ms"},
}

// perLayer are the metrics of a traced run, named <layer>.<metric>. A layer
// that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"server.http_self_ms.create", "ms"},
	{"server.http_self_ms.ingest", "ms"},
	{"server.http_self_ms.next", "ms"},
	{"server.http_self_ms.submit", "ms"},
	{"server.http_self_ms.global_next", "ms"},
	{"manager.self_ms.ingest", "ms"},
	{"manager.self_ms.next", "ms"},
	{"manager.self_ms.submit", "ms"},
	{"manager.self_ms.global_next", "ms"},
	{"manager.evictions", "count"},
	{"manager.resumes", "count"},
	{"manager.resume_frac", "ratio"},
	{"manager.coalesced_frac", "ratio"},
	{"manager.shed", "count"},
	{"wal.records", "count"},
	{"wal.bytes_per_answer", "B"},
	{"wal.syncs_per_record", "ratio"},
	{"wal.checkpoints", "count"},
	{"wal.append_ms", "ms"},
	{"wal.sync_ms", "ms"},
	{"wal.checkpoint_ms", "ms"},
	{"snapshot.bytes", "B"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"core.create_s", "s"},
	{"core.add_answers_ms", "ms"},
	{"core.submit_ms", "ms"},
	{"core.next_rescan_ms", "ms"},
	{"core.next_memo_ms", "ms"},
	{"core.memo_hit_frac", "ratio"},
	{"aggregation.em_iters_per_op", "count"},
	{"aggregation.delta_iters_per_ingest", "count"},
	{"aggregation.em_ms", "ms"},
	{"aggregation.index_builds", "count"},
	{"aggregation.index_patches", "count"},
	{"aggregation.index_build_frac", "ratio"},
	{"aggregation.index_ms", "ms"},
	{"guidance.rank_ms", "ms"},
	{"guidance.candidates_per_rank", "count"},
	{"spamdetect.detect_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// config is one benchmark invocation.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	tiny       bool   // smoke-test shapes
	workDir    string // park, WAL and trace files; removed afterwards
	sourceHash string // digest of the measured code, see sourceHash
}

// namedMetric is a workload-specific metric under its own name, e.g.
// steps_per_s, recorded beside the generic end-to-end names.
type namedMetric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is what a workload run produces.
type report struct {
	mu                sync.Mutex // guards attempted, failed and problems
	attempted, failed int64
	problems          []string // oracle mismatches and invalid-run reasons
	endToEnd          map[string]float64
	perLayer          map[string]float64
	named             []namedMetric
}

func (r *report) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) name(name string, value float64, unit string, samples int) {
	r.named = append(r.named, namedMetric{Name: name, Value: value, Unit: unit, Samples: samples})
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	workload := fset.String("workload", "", "workload to run: validate or market")
	seed := fset.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fset.Int("seconds", 30, "nominal length of the timed phase on the reference box, seconds")
	trace := fset.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := fset.String("root", ".", "repository root; run files go under <root>/.bench_build")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload validate|market, -seconds >= 1 and -trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	buildDir := filepath.Join(*root, ".bench_build")
	workDir := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg := config{
		workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		workDir: workDir, sourceHash: sourceHash(*root),
	}
	start := time.Now()
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out := result(cfg, rep)
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "problem:", p)
	}
	for _, m := range rep.named {
		fmt.Fprintf(stdout, "%s %s = %.6g %s (n=%d)\n", cfg.workload, m.Name, m.Value, m.Unit, m.Samples)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %s = %.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	if err := writeRecord(buildDir, cfg, rep, out, time.Since(start)); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing result record:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// workloads maps workload names to the functions that run them.
var workloads = map[string]func(config) (*report, error){
	"validate": runValidate,
	"market":   runMarket,
}

// result assembles the final JSON line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. It also records
// failed_frac, the share of attempted operations that failed or mismatched.
func result(cfg config, rep *report) resultJSON {
	rep.name("failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio", int(rep.attempted))
	defs, values := endToEnd, rep.endToEnd
	if cfg.trace {
		defs, values = perLayer, rep.perLayer
	}
	out := resultJSON{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			rep.problems = append(rep.problems, fmt.Sprintf("metric %s was not measured", d.name))
			v = 0
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return out
}

// runContext is recorded with every result.
type runContext struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"goVersion"`
	Commit      string  `json:"commit"`
	SourceHash  string  `json:"sourceSha256"`
	Seed        int64   `json:"seed"`
	HoldoutSeed int64   `json:"holdoutSeed"`
	WALSync     string  `json:"walSync"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
}

// writeRecord stores the full record of the run as
// .bench_build/results/<workload>-seed<seed>-trace<0|1>-<unix nanos>.json.
func writeRecord(buildDir string, cfg config, rep *report, out resultJSON, took time.Duration) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ctx := runContext{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: vcsRevision(), SourceHash: cfg.sourceHash, Seed: cfg.seed, HoldoutSeed: holdoutSeed,
		WALSync: walSyncPolicy, Seconds: cfg.seconds, Trace: cfg.trace,
	}
	rec := struct {
		Workload  string             `json:"workload"`
		Context   runContext         `json:"context"`
		Result    resultJSON         `json:"result"`
		Precision *float64           `json:"precision,omitempty"`
		Named     []namedMetric      `json:"named"`
		Layers    map[string]float64 `json:"layers"`
		Problems  []string           `json:"problems,omitempty"`
		WallS     float64            `json:"wallSeconds"`
	}{cfg.workload, ctx, out, precisionOf(rep), rep.named, rep.perLayer, rep.problems, took.Seconds()}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if cfg.trace {
		t = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", cfg.workload, cfg.seed, t, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}

// vcsRevision is the commit the binary was built from, when the build saw a
// version-control checkout; "unknown" otherwise (sourceSha256 still
// identifies the code).
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and go.mod file of the repository
// (outside .bench_build), so a record names the code it measured even in a
// checkout without version control.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// precisionOf is the run's precision for the record, nil when the oracle
// failed (a failed run's precision must not become the reference).
func precisionOf(rep *report) *float64 {
	p, ok := rep.endToEnd["precision"]
	if !ok || rep.failed > 0 {
		return nil
	}
	return &p
}
