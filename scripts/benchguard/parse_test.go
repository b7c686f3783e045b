package main

import (
	"math"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out := `
goos: linux
BenchmarkAggregate/50000x500/sparse-parallel-4   3   352481297 ns/op   2081888 B/op   1527 allocs/op
BenchmarkAggregateWarmStart/sparse-parallel-4    3     5639649 ns/op   2060058 B/op   1018 allocs/op
BenchmarkAggregateWarmStart/sparse-parallel-4    3     5700000 ns/op   2060058 B/op   1018 allocs/op
PASS
`
	results, err := parseBench(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := results["BenchmarkAggregate/50000x500/sparse-parallel"]; got != 352481297 {
		t.Fatalf("cold = %v", got)
	}
	// Fastest of the duplicate runs wins.
	if got := results["BenchmarkAggregateWarmStart/sparse-parallel"]; got != 5639649 {
		t.Fatalf("warm = %v", got)
	}
}

func TestParseBaselineMarkdown(t *testing.T) {
	md := "```\n" +
		"BenchmarkAggregate/50000x500/sparse-parallel   352481297 ns/op 2081888 B/op  1527 allocs/op\n" +
		"BenchmarkAggregateWarmStart/sparse-parallel      5639649 ns/op   2060058 B/op     1018 allocs/op\n" +
		"```\n"
	results, err := parseBench(md)
	if err != nil {
		t.Fatal(err)
	}
	ratio := results["BenchmarkAggregateWarmStart/sparse-parallel"] / results["BenchmarkAggregate/50000x500/sparse-parallel"]
	if math.Abs(ratio-0.016) > 0.002 {
		t.Fatalf("ratio = %v", ratio)
	}
}

func TestParseBenchErrors(t *testing.T) {
	if _, err := parseBench("no benchmarks here"); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":                  "BenchmarkX",
		"BenchmarkX/sparse-parallel-16": "BenchmarkX/sparse-parallel",
		"BenchmarkX/sparse-parallel":    "BenchmarkX/sparse-parallel",
		"BenchmarkX":                    "BenchmarkX",
	} {
		if got := stripProcs(in); got != want {
			t.Fatalf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRatioOfPairs(t *testing.T) {
	results := map[string]float64{
		"BenchmarkNextObject/50000x500/exact-full-em": 5189034003,
		"BenchmarkNextObject/50000x500/delta":         60750713,
	}
	ratio, err := ratioOf(results, knownPairs["next"], "test")
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 0 || ratio >= 0.05 {
		t.Fatalf("delta/exact ratio = %v, want small positive", ratio)
	}
	if _, err := ratioOf(map[string]float64{}, knownPairs["warm"], "test"); err == nil {
		t.Fatal("missing benchmarks accepted")
	}
	if _, err := ratioOf(map[string]float64{
		knownPairs["warm"].den: 0,
		knownPairs["warm"].num: 1,
	}, knownPairs["warm"], "test"); err == nil {
		t.Fatal("non-positive denominator accepted")
	}
}

// TestPairMargins pins every guarded pair and its regression margin, so a
// loosened margin or a dropped pair is a visible, reviewed change.
func TestPairMargins(t *testing.T) {
	want := map[string]float64{"warm": 0.25, "next": 0.35, "wal": 0.25, "nextserve": 0.5, "globalnext": 1.0}
	if len(knownPairs) != len(want) {
		t.Fatalf("%d guarded pairs, want %d", len(knownPairs), len(want))
	}
	for key, margin := range want {
		if got := knownPairs[key].maxRegress; got != margin {
			t.Errorf("pair %s margin = %v, want %v", key, got, margin)
		}
	}
}
