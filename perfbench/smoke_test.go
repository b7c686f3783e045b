package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"sort"
	"testing"
)

// workloadNames are the workload-specific metrics every run of a workload
// records under their own names, beside the generic end-to-end names.
var workloadNames = map[string][]string{
	"validate": {"steps_per_s", "step_p50_ms", "step_p95_ms", "next_part_p50_ms", "next_part_p95_ms", "submit_part_p50_ms", "submit_part_p95_ms", "precision", "failed_frac"},
	"market":   {"market_ops_per_s", "op_p50_ms", "next_p50_ms", "next_p95_ms", "global_next_p50_ms", "global_next_p95_ms", "failed_frac"},
}

// TestSmoke runs every workload at a tiny shape, untraced and traced, and
// requires the oracle to pass and every declared metric to be emitted.
func TestSmoke(t *testing.T) {
	bench := readBenchmarkJSON(t)
	for w := range workloads {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := config{
					workload: w, seed: 3, seconds: 1, trace: trace, tiny: true,
					workDir: t.TempDir(),
				}
				rep, err := workloads[w](cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				out := result(cfg, rep)
				if !out.Correct || rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d problems=%v",
						trace, out.Correct, rep.attempted, rep.failed, rep.problems)
				}
				want := bench.EndToEnd
				if trace {
					want = bench.PerLayer
				}
				if got := slices.Sorted(maps.Keys(out.Metrics)); !slices.Equal(got, want) {
					t.Errorf("trace=%v: emitted metrics %v, BENCHMARK.json declares %v", trace, got, want)
				}
				named := map[string]bool{}
				for _, m := range rep.named {
					named[m.Name] = true
				}
				for _, n := range workloadNames[w] {
					if !named[n] {
						t.Errorf("trace=%v: workload metric %s not recorded", trace, n)
					}
				}
			}
		})
	}
}

// TestDeclarations keeps BENCHMARK.json and the metric declarations in step.
func TestDeclarations(t *testing.T) {
	bench := readBenchmarkJSON(t)
	if got := defNames(endToEnd); !slices.Equal(got, bench.EndToEnd) {
		t.Errorf("endToEnd declares %v, BENCHMARK.json %v", got, bench.EndToEnd)
	}
	if got := defNames(perLayer); !slices.Equal(got, bench.PerLayer) {
		t.Errorf("perLayer declares %v, BENCHMARK.json %v", got, bench.PerLayer)
	}
	if names := slices.Sorted(maps.Keys(workloads)); !slices.Equal(names, bench.Workloads) {
		t.Errorf("workloads %v, BENCHMARK.json %v", names, bench.Workloads)
	}
}

type benchNames struct {
	EndToEnd, PerLayer, Workloads []string
}

func readBenchmarkJSON(t *testing.T) benchNames {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var out benchNames
	for _, m := range b.EndToEnd {
		out.EndToEnd = append(out.EndToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		out.PerLayer = append(out.PerLayer, m.Name)
	}
	for _, w := range b.Workloads {
		out.Workloads = append(out.Workloads, w.Name)
	}
	sort.Strings(out.EndToEnd)
	sort.Strings(out.PerLayer)
	sort.Strings(out.Workloads)
	return out
}

func defNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}
