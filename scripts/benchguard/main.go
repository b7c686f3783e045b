// Command benchguard compares a fresh benchmark run against the committed
// BENCHMARKS.md baseline and fails when a guarded hot-path ratio regressed.
//
// Absolute ns/op numbers are machine-dependent, so the guard compares
// dimensionless ratios between benchmark pairs measured in the same run:
//
//   - warm: the i-EM warm-start/cold-start ratio — how much cheaper one
//     pay-as-you-go warm aggregation is than a cold start. That ratio is the
//     property the warm start exists for; a change that erodes it (e.g.
//     accidentally discarding the previous probabilistic state) is caught on
//     any hardware.
//   - next: the delta-scored/exact-full-EM NextObject ratio — how much
//     cheaper one delta-accelerated guidance selection is than the exact
//     reference scorer on the same candidate set. A change that erodes it
//     (e.g. the delta scorer silently falling back to full re-aggregations)
//     is caught the same way.
//   - wal: the WAL-on (interval sync, the serve default) / WAL-off ingest
//     ratio — the durability tax on one ingest batch. A change that bloats
//     record framing or fsyncs more often than the policy asks for is
//     caught as ratio growth on any hardware.
//   - nextserve: the maintained/rebuild served-selection ratio — how much
//     cheaper a GET /next?k= against the maintained scoring view (patched
//     index + memoized rankings) is than the same request rescanning from
//     scratch. A change that erodes it (e.g. an invalidation bug dropping
//     the index on every request) is caught as ratio growth on any hardware.
//   - globalnext: the global-over-64-sessions/single-session served
//     selection ratio — what a GET /v1/next?k=10 across 64 warm resident
//     sessions costs relative to one session's GET /next. The fan-out reads
//     every session's memoized ranking under its read lock and merges, so
//     the ratio must stay within an order of magnitude; a change that
//     erodes it (e.g. the global path rebuilding per-session indexes per
//     request) is caught as ratio growth on any hardware.
//
// Each pair carries its own margin: the largest tolerated relative growth of
// its ratio over the baseline. Without -pairs every pair is checked.
//
// Usage:
//
//	go test -run '^$' -bench '...' -benchtime 3x . | tee bench.out
//	go run ./scripts/benchguard -bench bench.out -baseline BENCHMARKS.md [-pairs warm,next]
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
)

// ratioPair is one guarded benchmark ratio: num/den, compared between the
// fresh run and the baseline. The check fails when the fresh ratio exceeds
// the baseline ratio by more than the fraction maxRegress.
type ratioPair struct {
	name       string
	num        string
	den        string
	maxRegress float64
}

// The guarded pairs, addressable through -pairs.
var knownPairs = map[string]ratioPair{
	"warm": {
		name: "warm/cold aggregation",
		num:  "BenchmarkAggregateWarmStart/sparse-parallel",
		den:  "BenchmarkAggregate/50000x500/sparse-parallel",
		// Shared runners fluctuate >15% per run even at min-of-3.
		maxRegress: 0.25,
	},
	"next": {
		name:       "delta/exact NextObject",
		num:        "BenchmarkNextObject/50000x500/delta",
		den:        "BenchmarkNextObject/50000x500/exact-full-em",
		maxRegress: 0.35,
	},
	"wal": {
		name:       "WAL-on/WAL-off ingest",
		num:        "BenchmarkIngestWithWAL/sync-interval",
		den:        "BenchmarkIngestWithWAL/nowal",
		maxRegress: 0.25,
	},
	"nextserve": {
		name: "maintained/rebuild served selection",
		num:  "BenchmarkServerNext/maintained",
		den:  "BenchmarkServerNext/rebuild",
		// The baseline ratio is tiny (~0.002); the pair catches selections
		// degrading into per-request rebuilds, not microsecond noise.
		maxRegress: 0.5,
	},
	"globalnext": {
		name: "global-64-sessions/single-session served selection",
		num:  "BenchmarkGlobalNext/64-sessions",
		den:  "BenchmarkServerNext/maintained",
		// A global path that stopped amortizing would push the ratio (~2.5)
		// into the hundreds.
		maxRegress: 1.0,
	},
}

func main() {
	benchPath := flag.String("bench", "", "file with the fresh `go test -bench` output")
	baselinePath := flag.String("baseline", "BENCHMARKS.md", "committed baseline file")
	all := slices.Sorted(maps.Keys(knownPairs))
	pairNames := flag.String("pairs", "", "comma-separated guarded ratios to check ("+strings.Join(all, ", ")+"); empty checks all")
	flag.Parse()
	if *benchPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -bench is required")
		os.Exit(2)
	}

	fresh, err := resultsFromFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: fresh run:", err)
		os.Exit(2)
	}
	baseline, err := resultsFromFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: baseline:", err)
		os.Exit(2)
	}

	names := all
	if *pairNames != "" {
		names = strings.Split(*pairNames, ",")
	}
	failed := false
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		pair, ok := knownPairs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: unknown pair %q (known: %s)\n", name, strings.Join(all, ", "))
			os.Exit(2)
		}
		currentRatio, err := ratioOf(fresh, pair, *benchPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		baselineRatio, err := ratioOf(baseline, pair, *baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		limit := baselineRatio * (1 + pair.maxRegress)
		fmt.Printf("benchguard: %s ratio: fresh %.5f, baseline %.5f, limit %.5f\n",
			pair.name, currentRatio, baselineRatio, limit)
		if currentRatio > limit {
			fmt.Fprintf(os.Stderr,
				"benchguard: FAIL: %s regressed: ratio %.5f exceeds %.5f (baseline %.5f +%.0f%%)\n",
				pair.name, currentRatio, limit, baselineRatio, pair.maxRegress*100)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchguard: OK")
}

func resultsFromFile(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseBench(string(data))
}

func ratioOf(results map[string]float64, pair ratioPair, path string) (float64, error) {
	den, ok := results[pair.den]
	if !ok {
		return 0, fmt.Errorf("%s: no result for %s", path, pair.den)
	}
	num, ok := results[pair.num]
	if !ok {
		return 0, fmt.Errorf("%s: no result for %s", path, pair.num)
	}
	if den <= 0 {
		return 0, fmt.Errorf("%s: non-positive denominator time %v for %s", path, den, pair.den)
	}
	return num / den, nil
}
