package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"crowdval/internal/server"
)

// countLayers fills the per-layer metrics that come from the manager's own
// counters, as deltas over the timed phase; every other per-layer metric
// starts at 0 until the traced replay measures it.
func countLayers(rep *report, st server.Stats) {
	rep.perLayer = make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		rep.perLayer[d.name] = 0
	}
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	mutations := st.IngestBatches + st.SubmittedValidations
	touches := st.IngestBatches + st.SubmittedValidations + st.Selections + st.GlobalSelections
	l := rep.perLayer
	l["manager.evictions"] = float64(st.Evictions)
	l["manager.resumes"] = float64(st.Resumes)
	l["manager.resume_frac"] = ratio(st.Resumes, touches)
	l["manager.coalesced_frac"] = ratio(st.CoalescedIngests, st.IngestBatches+st.CoalescedIngests)
	l["manager.shed"] = float64(st.ShedIngests)
	l["wal.records"] = float64(st.WALRecords)
	l["wal.bytes_per_answer"] = ratio(st.WALBytes, st.IngestedAnswers)
	l["wal.syncs_per_record"] = ratio(st.WALSyncs, st.WALRecords)
	l["wal.checkpoints"] = float64(st.Checkpoints)
	l["aggregation.em_iters_per_op"] = ratio(st.EMIterations, mutations)
	l["aggregation.delta_iters_per_ingest"] = ratio(st.DeltaIterations, st.IngestBatches)
	l["aggregation.index_builds"] = float64(st.ScoreIndexBuilds)
	l["aggregation.index_patches"] = float64(st.ScoreIndexPatches)
	l["aggregation.index_build_frac"] = ratio(st.ScoreIndexBuilds, st.ScoreIndexBuilds+st.ScoreIndexPatches)
}

// checkPrecisionRepeat requires precision to equal the value of every earlier
// recorded run of the same workload, seed and length in this checkout: the
// work is fixed per seed, so precision is a pure function of code and seed.
func checkPrecisionRepeat(cfg config, prec float64, rep *report) {
	dir := filepath.Join(filepath.Dir(cfg.workDir), "results")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // no earlier runs
	}
	prefix := fmt.Sprintf("%s-seed%d-", cfg.workload, cfg.seed)
	for _, ent := range entries {
		if !strings.HasPrefix(ent.Name(), prefix) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			continue
		}
		var rec struct {
			Context struct {
				Seconds    float64 `json:"seconds"`
				SourceHash string  `json:"sourceSha256"`
			} `json:"context"`
			Precision *float64 `json:"precision"`
		}
		if json.Unmarshal(raw, &rec) != nil || rec.Precision == nil || rec.Context.Seconds != cfg.seconds {
			continue
		}
		if rec.Context.SourceHash == cfg.sourceHash && *rec.Precision != prec {
			rep.fail("precision %v differs from %v of the earlier run %s of the same seed", prec, *rec.Precision, ent.Name())
			return
		}
	}
}
