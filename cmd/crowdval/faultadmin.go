package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"crowdval/internal/cverr"
	"crowdval/internal/fault"
	"crowdval/internal/server"
)

// The fault admin endpoint lets an external chaos harness (scripts/chaossmoke,
// operators rehearsing incident response) arm and clear I/O faults in a
// running server that was started with -enable-fault-injection. It lives on
// the same listener as the API, under the /internal prefix alongside the
// other node-to-node endpoints, and is never mounted unless the flag is set.

// faultRuleJSON is the wire form of a fault.Rule: errors are named, not
// typed, and latency is expressed in milliseconds.
type faultRuleJSON struct {
	// Op is the operation class: write, sync, rename, open, or dial.
	Op string `json:"op"`
	// Match is a substring of the path (or host for dial); empty matches all.
	Match string `json:"match,omitempty"`
	// Skip lets this many matching operations through before firing.
	Skip int `json:"skip,omitempty"`
	// Count bounds how many operations fire; <= 0 keeps firing until cleared.
	Count int `json:"count,omitempty"`
	// Err names the injected failure: "enospc", "eio", or "" for none
	// (latency-only rules).
	Err string `json:"err,omitempty"`
	// ShortBy tears a write short by this many bytes before failing it.
	ShortBy int `json:"shortBy,omitempty"`
	// LatencyMs delays the operation before the error decision.
	LatencyMs int `json:"latencyMs,omitempty"`
}

// faultAdminRequest arms rules and/or clears everything armed so far. Clear
// is applied first, so {"clear": true, "rules": [...]} swaps the schedule
// atomically.
type faultAdminRequest struct {
	Clear bool            `json:"clear,omitempty"`
	Rules []faultRuleJSON `json:"rules,omitempty"`
}

type faultAdminResponse struct {
	// Injected counts faults injected since the process started.
	Injected int64 `json:"injected"`
}

func (r faultRuleJSON) rule() (fault.Rule, error) {
	var op fault.Op
	switch fault.Op(r.Op) {
	case fault.OpWrite, fault.OpSync, fault.OpRename, fault.OpOpen, fault.OpDial:
		op = fault.Op(r.Op)
	default:
		return fault.Rule{}, fmt.Errorf("unknown fault op %q", r.Op)
	}
	var ferr error
	switch r.Err {
	case "enospc":
		ferr = fault.ErrNoSpace
	case "eio":
		ferr = fault.ErrIO
	case "":
		if r.LatencyMs <= 0 && r.ShortBy <= 0 {
			return fault.Rule{}, fmt.Errorf("fault rule needs err, shortBy, or latencyMs")
		}
	default:
		return fault.Rule{}, fmt.Errorf("unknown fault err %q (want enospc or eio)", r.Err)
	}
	return fault.Rule{
		Op:      op,
		Match:   r.Match,
		Skip:    r.Skip,
		Count:   r.Count,
		Err:     ferr,
		ShortBy: r.ShortBy,
		Latency: time.Duration(r.LatencyMs) * time.Millisecond,
	}, nil
}

// withFaultAdmin mounts the injector's admin endpoint in front of next:
// exactly /internal/v1/faults is handled here, everything else passes
// through untouched.
func withFaultAdmin(next http.Handler, in *fault.Injector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/internal/v1/faults" {
			next.ServeHTTP(w, r)
			return
		}
		switch r.Method {
		case http.MethodGet:
			writeFaultJSON(w, http.StatusOK, faultAdminResponse{Injected: in.Injected()})
		case http.MethodPost:
			var req faultAdminRequest
			if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
				server.WriteError(w, fmt.Errorf("decoding fault rules: %w: %w", err, cverr.ErrBadRequest))
				return
			}
			rules := make([]fault.Rule, 0, len(req.Rules))
			for _, rj := range req.Rules {
				rule, err := rj.rule()
				if err != nil {
					server.WriteError(w, fmt.Errorf("%w: %w", err, cverr.ErrBadRequest))
					return
				}
				rules = append(rules, rule)
			}
			if req.Clear {
				in.Clear()
			}
			in.Arm(rules...)
			writeFaultJSON(w, http.StatusOK, faultAdminResponse{Injected: in.Injected()})
		default:
			w.Header().Set("Allow", "GET, POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

func writeFaultJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
