package server

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
)

// This file renders the manager statistics in the Prometheus text exposition
// format (version 0.0.4), served at GET /metrics alongside the JSON form at
// GET /v1/metrics. The scrape path reads only manager-guarded state and
// lock-free atomics — it never touches an entry lock, so a scrape cannot
// queue behind an in-flight aggregation or fsync.
//
// Stats and ClusterStats are the metric declarations: every int64 or float64
// field carries a prom:"<name>,<counter|gauge>" tag and a help:"..." tag, and
// RenderPrometheus turns each tagged field into one metric. Ratios
// (coalescing effectiveness, park/resume churn) are left to the scraper:
// counters stay raw so rate() works.

// RenderPrometheus renders a Stats or ClusterStats sample in the Prometheus
// text format: one # HELP, # TYPE and sample line per prom-tagged field, in
// field order. Fields without a prom tag are skipped.
func RenderPrometheus(stats any) string {
	v := reflect.ValueOf(stats)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		name, typ, ok := strings.Cut(f.Tag.Get("prom"), ",")
		if !ok {
			continue
		}
		// %v prints an int64 as %d and a float64 as %g.
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, f.Tag.Get("help"), name, typ, name, v.Field(i))
	}
	return b.String()
}

// ClusterStats is the cluster fabric's contribution to the metrics endpoints
// (see internal/cluster); all zero on a standalone node. Like Stats it is a
// point-in-time sample of independently monotone (or gauge) counters.
type ClusterStats struct {
	// Self is this node's advertised address; Peers the fabric size.
	Self  string `json:"self,omitempty"`
	Peers int64  `json:"peers" prom:"crowdval_cluster_peers,gauge" help:"Member nodes in the cluster fabric."`
	// SessionsOwned counts sessions this node currently owns (serves writes
	// for); FollowedSessions counts sessions it replicates from a leader.
	SessionsOwned    int64 `json:"sessionsOwned" prom:"crowdval_cluster_sessions_owned,gauge" help:"Sessions this node currently owns."`
	FollowedSessions int64 `json:"followedSessions" prom:"crowdval_cluster_sessions_followed,gauge" help:"Sessions this node replicates from a leader."`
	// HandoffsIn/HandoffsOut count live session migrations received/sent.
	HandoffsIn  int64 `json:"handoffsIn" prom:"crowdval_cluster_handoffs_in_total,counter" help:"Live session migrations received."`
	HandoffsOut int64 `json:"handoffsOut" prom:"crowdval_cluster_handoffs_out_total,counter" help:"Live session migrations sent."`
	// ReplicationLagLSN is the largest (leader LSN − applied LSN) gap across
	// the sessions this node follows, from the latest stream samples.
	ReplicationLagLSN int64 `json:"replicationLagLSN" prom:"crowdval_cluster_replication_lag_lsns,gauge" help:"Largest leader-to-follower LSN gap across followed sessions."`
	// Promotions counts followed sessions this node promoted to ownership
	// after a leader failure.
	Promotions int64 `json:"promotions" prom:"crowdval_cluster_promotions_total,counter" help:"Followed sessions promoted to ownership after a leader failure."`
	// NotOwnerRejects counts requests bounced with HTTP 421 because another
	// node owns the session.
	NotOwnerRejects int64 `json:"notOwnerRejects" prom:"crowdval_cluster_not_owner_total,counter" help:"Requests rejected with HTTP 421 (session owned elsewhere)."`
}

// MetricsResponse is the body of GET /v1/metrics: the manager statistics,
// plus the cluster fabric's counters when the node is part of one.
type MetricsResponse struct {
	Stats
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = fmt.Fprint(w, RenderPrometheus(s.manager.Stats()))
	if s.clusterStats != nil {
		_, _ = fmt.Fprint(w, RenderPrometheus(s.clusterStats()))
	}
}
