package server

import (
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// pinnedStats returns a Stats and a ClusterStats sample with every numeric
// field set to a distinct non-zero value, so a metric rendered from the wrong
// field, or not rendered at all, shows up as a mismatch.
func pinnedStats() (Stats, ClusterStats) {
	s := Stats{
		Sessions:             101,
		Resident:             102,
		Parked:               103,
		ResidentBytes:        104,
		MemoryBudget:         105,
		IngestedAnswers:      106,
		IngestBatches:        107,
		CoalescedIngests:     108,
		SubmittedValidations: 109,
		Selections:           110,
		GlobalSelections:     111,
		BudgetRemaining:      62.5,
		Evictions:            112,
		Resumes:              113,
		EMIterations:         114,
		DeltaIterations:      115,
		ShedIngests:          116,
		ScoreIndexBuilds:     117,
		ScoreIndexPatches:    118,
		WALRecords:           119,
		WALBytes:             120,
		WALSyncs:             121,
		Checkpoints:          122,
		CheckpointFailures:   123,
		RecoveredSessions:    124,
		ReplayedRecords:      125,
		WALDegradedSessions:  126,
		WALFailStopSessions:  127,
		DegradeEvents:        128,
		WALHeals:             129,
		ProbeFailures:        130,
		ENOSPCReclaims:       131,
	}
	c := ClusterStats{
		Self:              "10.0.0.1:7001",
		Peers:             201,
		SessionsOwned:     202,
		FollowedSessions:  203,
		HandoffsIn:        204,
		HandoffsOut:       205,
		ReplicationLagLSN: 206,
		Promotions:        207,
		NotOwnerRejects:   208,
	}
	return s, c
}

// promSample is one parsed exposition block: a metric's # TYPE, # HELP and
// sample value.
type promSample struct {
	typ, help, value string
}

// wantExposition is the full /metrics content for pinnedStats, keyed by
// metric name. Sample order is not part of the contract; everything else is.
var wantExposition = map[string]promSample{
	"crowdval_sessions":                     {"gauge", "Managed sessions.", "101"},
	"crowdval_sessions_resident":            {"gauge", "Sessions resident in memory.", "102"},
	"crowdval_sessions_parked":              {"gauge", "Sessions parked to disk.", "103"},
	"crowdval_resident_bytes":               {"gauge", "Estimated bytes of resident session state.", "104"},
	"crowdval_memory_budget_bytes":          {"gauge", "Configured resident-memory budget (0 = unlimited).", "105"},
	"crowdval_ingested_answers_total":       {"counter", "Crowd answers ingested.", "106"},
	"crowdval_ingest_batches_total":         {"counter", "AddAnswers batches executed against sessions.", "107"},
	"crowdval_coalesced_ingests_total":      {"counter", "Ingest requests merged into another request's batch.", "108"},
	"crowdval_validations_total":            {"counter", "Expert validations submitted.", "109"},
	"crowdval_selections_total":             {"counter", "Next-object selections served.", "110"},
	"crowdval_global_selections_total":      {"counter", "Global cross-session rankings served (GET /v1/next).", "111"},
	"crowdval_budget_remaining":             {"gauge", "Summed monetary budget remaining across budgeted sessions.", "62.5"},
	"crowdval_evictions_total":              {"counter", "Sessions parked to disk under memory pressure.", "112"},
	"crowdval_resumes_total":                {"counter", "Parked sessions resumed on touch.", "113"},
	"crowdval_em_iterations_total":          {"counter", "Full EM iterations run across all sessions.", "114"},
	"crowdval_delta_iterations_total":       {"counter", "Frontier-restricted delta iterations run across all sessions.", "115"},
	"crowdval_shed_ingests_total":           {"counter", "Ingest requests shed with ErrOverloaded (HTTP 429).", "116"},
	"crowdval_score_index_builds_total":     {"counter", "Guidance scoring indexes built from scratch.", "117"},
	"crowdval_score_index_patches_total":    {"counter", "Guidance scoring indexes patched in place (maintained view).", "118"},
	"crowdval_wal_records_total":            {"counter", "Records appended to session write-ahead logs.", "119"},
	"crowdval_wal_bytes_total":              {"counter", "Bytes written to session write-ahead logs.", "120"},
	"crowdval_wal_fsyncs_total":             {"counter", "Fsyncs issued by session write-ahead logs.", "121"},
	"crowdval_checkpoints_total":            {"counter", "Snapshot checkpoints written (with log truncation).", "122"},
	"crowdval_checkpoint_failures_total":    {"counter", "Snapshot checkpoints that failed (log left untruncated).", "123"},
	"crowdval_recovered_sessions":           {"gauge", "Sessions rebuilt from WAL recovery at boot.", "124"},
	"crowdval_replayed_records":             {"gauge", "WAL records replayed during boot recovery.", "125"},
	"crowdval_wal_degraded_sessions":        {"gauge", "Sessions in degraded read-only mode after a durability failure.", "126"},
	"crowdval_wal_failstop_sessions":        {"gauge", "Sessions fail-stopped until restart (durable log inconsistent).", "127"},
	"crowdval_wal_degrade_events_total":     {"counter", "Transitions of a session into degraded read-only mode.", "128"},
	"crowdval_wal_heals_total":              {"counter", "Degraded sessions healed back to healthy by the probe loop.", "129"},
	"crowdval_wal_probe_failures_total":     {"counter", "Health probe writes that failed (disk still unavailable).", "130"},
	"crowdval_wal_enospc_reclaims_total":    {"counter", "Successful checkpoint-and-truncate reclaims after ENOSPC.", "131"},
	"crowdval_cluster_peers":                {"gauge", "Member nodes in the cluster fabric.", "201"},
	"crowdval_cluster_sessions_owned":       {"gauge", "Sessions this node currently owns.", "202"},
	"crowdval_cluster_sessions_followed":    {"gauge", "Sessions this node replicates from a leader.", "203"},
	"crowdval_cluster_handoffs_in_total":    {"counter", "Live session migrations received.", "204"},
	"crowdval_cluster_handoffs_out_total":   {"counter", "Live session migrations sent.", "205"},
	"crowdval_cluster_replication_lag_lsns": {"gauge", "Largest leader-to-follower LSN gap across followed sessions.", "206"},
	"crowdval_cluster_promotions_total":     {"counter", "Followed sessions promoted to ownership after a leader failure.", "207"},
	"crowdval_cluster_not_owner_total":      {"counter", "Requests rejected with HTTP 421 (session owned elsewhere).", "208"},
}

// wantMetricsJSON is the /v1/metrics body for pinnedStats.
const wantMetricsJSON = `{"sessions":101,"resident":102,"parked":103,"residentBytes":104,"memoryBudget":105,"ingestedAnswers":106,"ingestBatches":107,"coalescedIngests":108,"submittedValidations":109,"selections":110,"globalSelections":111,"budgetRemaining":62.5,"evictions":112,"resumes":113,"emIterations":114,"deltaIterations":115,"shedIngests":116,"scoreIndexBuilds":117,"scoreIndexPatches":118,"walRecords":119,"walBytes":120,"walSyncs":121,"checkpoints":122,"checkpointFailures":123,"recoveredSessions":124,"replayedRecords":125,"walDegradedSessions":126,"walFailStopSessions":127,"degradeEvents":128,"walHeals":129,"probeFailures":130,"enospcReclaims":131,"cluster":{"self":"10.0.0.1:7001","peers":201,"sessionsOwned":202,"followedSessions":203,"handoffsIn":204,"handoffsOut":205,"replicationLagLSN":206,"promotions":207,"notOwnerRejects":208}}
`

// renderExposition is what GET /metrics serves for a node with cluster
// counters.
func renderExposition(s Stats, c ClusterStats) string {
	return RenderPrometheus(s) + RenderPrometheus(c)
}

// parseExposition splits Prometheus text into per-metric blocks. Each metric
// must appear exactly once, as a # HELP line, a # TYPE line and one sample,
// in that order.
func parseExposition(t *testing.T, text string) map[string]promSample {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines)%3 != 0 {
		t.Fatalf("exposition has %d lines, not HELP/TYPE/sample triples:\n%s", len(lines), text)
	}
	out := make(map[string]promSample)
	for i := 0; i < len(lines); i += 3 {
		name, help, ok := strings.Cut(strings.TrimPrefix(lines[i], "# HELP "), " ")
		if !ok || !strings.HasPrefix(lines[i], "# HELP ") {
			t.Fatalf("line %d: want # HELP, got %q", i+1, lines[i])
		}
		typ, ok := strings.CutPrefix(lines[i+1], "# TYPE "+name+" ")
		if !ok {
			t.Fatalf("line %d: want # TYPE %s, got %q", i+2, name, lines[i+1])
		}
		value, ok := strings.CutPrefix(lines[i+2], name+" ")
		if !ok {
			t.Fatalf("line %d: want a %s sample, got %q", i+3, name, lines[i+2])
		}
		if _, dup := out[name]; dup {
			t.Fatalf("metric %s rendered twice", name)
		}
		out[name] = promSample{typ: typ, help: help, value: value}
	}
	return out
}

// TestPrometheusExpositionPinned pins /metrics: every metric's name, type,
// help text and value for a sample whose numeric fields are all distinct.
func TestPrometheusExpositionPinned(t *testing.T) {
	s, c := pinnedStats()
	owner := make(map[float64]string) // value → field holding it
	for _, v := range []any{s, c} {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumField(); i++ {
			field := rv.Type().Name() + "." + rv.Type().Field(i).Name
			var x float64
			switch f := rv.Field(i); f.Kind() {
			case reflect.Int64:
				x = float64(f.Int())
			case reflect.Float64:
				x = f.Float()
			default:
				continue
			}
			if x == 0 {
				t.Fatalf("pinnedStats leaves %s zero", field)
			}
			if prev, dup := owner[x]; dup {
				t.Fatalf("pinnedStats gives %s and %s the same value %g", prev, field, x)
			}
			owner[x] = field
		}
	}

	got := parseExposition(t, renderExposition(s, c))
	for name, want := range wantExposition {
		g, ok := got[name]
		if !ok {
			t.Errorf("/metrics is missing %s", name)
			continue
		}
		if g != want {
			t.Errorf("%s = %+v, want %+v", name, g, want)
		}
	}
	for name := range got {
		if _, ok := wantExposition[name]; !ok {
			t.Errorf("/metrics has unexpected metric %s", name)
		}
	}
}

// TestMetricsJSONPinned pins the /v1/metrics body byte for byte.
func TestMetricsJSONPinned(t *testing.T) {
	s, c := pinnedStats()
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, MetricsResponse{Stats: s, Cluster: &c})
	if got := rec.Body.String(); got != wantMetricsJSON {
		t.Fatalf("/v1/metrics body:\n%s\nwant:\n%s", got, wantMetricsJSON)
	}
}

// TestMetricTagInvariants: every numeric field of Stats and ClusterStats is
// declared as a metric — a prom tag with a well-formed unique name and a
// counter/gauge type that matches the _total suffix convention, and a help
// text — and nothing else carries a prom tag. A new field therefore cannot
// silently go missing from /metrics.
func TestMetricTagInvariants(t *testing.T) {
	valid := regexp.MustCompile(`^crowdval_[a-z0-9_]+$`)
	names := make(map[string]string) // metric name → declaring field
	for _, typ := range []reflect.Type{reflect.TypeOf(Stats{}), reflect.TypeOf(ClusterStats{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			field := typ.Name() + "." + f.Name
			tag, tagged := f.Tag.Lookup("prom")
			numeric := f.Type.Kind() == reflect.Int64 || f.Type.Kind() == reflect.Float64
			if !numeric {
				if tagged {
					t.Errorf("%s: prom tag on a %s field", field, f.Type)
				}
				continue
			}
			name, kind, ok := strings.Cut(tag, ",")
			if !ok {
				t.Errorf("%s: prom tag %q, want \"<name>,<counter|gauge>\"", field, tag)
				continue
			}
			if !valid.MatchString(name) {
				t.Errorf("%s: metric name %q does not match %s", field, name, valid)
			}
			if prev, dup := names[name]; dup {
				t.Errorf("%s: metric name %q already declared by %s", field, name, prev)
			}
			names[name] = field
			switch kind {
			case "counter":
				if !strings.HasSuffix(name, "_total") {
					t.Errorf("%s: counter %q must end in _total", field, name)
				}
			case "gauge":
				if strings.HasSuffix(name, "_total") {
					t.Errorf("%s: gauge %q must not end in _total", field, name)
				}
			default:
				t.Errorf("%s: metric type %q, want counter or gauge", field, kind)
			}
			if strings.TrimSpace(f.Tag.Get("help")) == "" {
				t.Errorf("%s: empty help tag", field)
			}
		}
	}
}
