package server

import (
	"testing"

	"crowdval/internal/snapshot"
)

// TestCreateSessionDefaultsToDelta: POST /v1/sessions with empty options
// creates a session on both delta paths, and "exact": true one on neither;
// the snapshot records the mode. The delta outcome counters of /v1/metrics
// follow the default session per trigger — a validation is accepted on the
// frontier path, an ingest dirtying most objects falls back on its large
// frontier, and an ingest that grows the session is accepted too, because
// the engine grows its warm state along — and the exact session adds
// nothing to them.
func TestCreateSessionDefaultsToDelta(t *testing.T) {
	c, _ := newTestServer(t, 0)
	d := testCrowd(t, 20, 6, 31)
	for _, tc := range []struct {
		name    string
		options SessionConfig
		delta   bool
	}{
		{"default", SessionConfig{}, true},
		{"exact", SessionConfig{Exact: true}, false},
	} {
		c.must("POST", "/v1/sessions", CreateSessionRequest{
			Name: tc.name, Matrix: matrixOf(d.Answers), NumLabels: 2, Options: tc.options,
		}, nil)
		st, err := snapshot.Decode(c.snapshotBytes(tc.name))
		if err != nil {
			t.Fatal(err)
		}
		if st.DeltaEnabled != tc.delta || st.DeltaScoring != tc.delta {
			t.Fatalf("%s session: delta ingest %v, delta scoring %v; want %v", tc.name, st.DeltaEnabled, st.DeltaScoring, tc.delta)
		}
	}

	wantOutcomes := func(what string, accepted, largeFrontier int64) {
		t.Helper()
		var s Stats
		c.must("GET", "/v1/metrics", nil, &s)
		if s.DeltaAccepted != accepted || s.DeltaStalled != 0 || s.DeltaLargeFrontier != largeFrontier {
			t.Fatalf("%s: delta accepted/stalled/large-frontier = %d/%d/%d, want %d/0/%d", what,
				s.DeltaAccepted, s.DeltaStalled, s.DeltaLargeFrontier, accepted, largeFrontier)
		}
	}
	flood := IngestRequest{}
	for o := 0; o < 15; o++ {
		flood.Answers = append(flood.Answers, AnswerJSON{Object: o, Worker: 0, Label: int(d.Truth[o])})
	}
	growth := IngestRequest{Answers: []AnswerJSON{{Object: 20, Worker: 1, Label: 1}}}
	for _, name := range []string{"exact", "default"} {
		c.must("POST", "/v1/sessions/"+name+"/validations", SubmitRequest{
			Validations: []ValidationJSON{{Object: 0, Label: int(d.Truth[0])}},
		}, nil)
		c.must("POST", "/v1/sessions/"+name+"/answers", flood, nil)
		c.must("POST", "/v1/sessions/"+name+"/answers", growth, nil)
		if name == "exact" {
			wantOutcomes("after the exact session's operations", 0, 0)
		}
	}
	wantOutcomes("after the default session's operations", 2, 1)
}
