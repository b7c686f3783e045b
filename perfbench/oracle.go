package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"crowdval"
	"crowdval/internal/aggregation"
	"crowdval/internal/server"
	"crowdval/internal/snapshot"
)

// verify is the correctness oracle. It must run after the timed phase. For
// every session it downloads the server's snapshot and result, then replays
// the session's acknowledged operations serially through a library session
// with the same options and requires:
//
//   - every ranking and step the server returned to be reproduced exactly;
//   - the replay's snapshot bytes to equal the server's;
//   - every acknowledged ingest answer to be present with the label sent;
//   - the session's fixed-point residual to be within the delta parity
//     suite's bound (twice the settle tolerance).
//
// Each client's sessions replay on their own goroutine. Mismatches are
// recorded on rep. The returned precision is the mean over sessions of the
// server's final labels against the ground truth.
func verify(e *env, specs []*sessionSpec, rep *report) (float64, error) {
	served := make([][]byte, len(specs))
	precisions := make([]float64, len(specs))
	for i, s := range specs {
		var snap []byte
		if err := e.do(http.MethodGet, "/v1/sessions/"+s.name+"/snapshot", nil, &snap); err != nil {
			return 0, fmt.Errorf("downloading snapshot of %s: %w", s.name, err)
		}
		served[i] = snap
		var res server.ResultResponse
		if err := e.do(http.MethodGet, "/v1/sessions/"+s.name+"/result", nil, &res); err != nil {
			return 0, fmt.Errorf("fetching result of %s: %w", s.name, err)
		}
		precisions[i] = precision(res.Labels, s.data.truth)
	}

	problems := make([][]string, len(specs))
	err := forClients(func(c int) error {
		for i, s := range specs {
			if s.client != c {
				continue
			}
			p, err := replayAndCompare(s, served[i], precisions[i])
			if err != nil {
				return err
			}
			problems[i] = p
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, ps := range problems {
		for _, p := range ps {
			rep.fail("%s", p)
		}
	}
	return mean(precisions), nil
}

// replayAndCompare replays one session and returns its mismatches.
func replayAndCompare(s *sessionSpec, served []byte, servedPrecision float64) ([]string, error) {
	var problems []string
	mismatch := func(format string, args ...any) {
		problems = append(problems, s.name+": "+fmt.Sprintf(format, args...))
	}
	answers, err := answerSet(s.create)
	if err != nil {
		return nil, err
	}
	sess, err := crowdval.NewSession(answers, libraryOptions(s.create.Options)...)
	if err != nil {
		return nil, fmt.Errorf("replaying %s: %w", s.name, err)
	}
	ctx := context.Background()
	for i, o := range s.log {
		switch o.kind {
		case opIngest:
			if err := sess.AddAnswers(ctx, toAnswers(o.answers)); err != nil {
				mismatch("op %d: replayed ingest failed: %v", i, err)
			}
		case opNext, opStep:
			k := o.k
			if o.kind == opStep {
				k = 1
			}
			ranked, err := sess.NextObjectsContext(ctx, k)
			if err != nil {
				mismatch("op %d: replayed next failed: %v", i, err)
				continue
			}
			if !sameRanking(ranked, o.ranking) {
				mismatch("op %d: ranking differs from the served one", i)
			}
			if o.kind == opNext {
				continue
			}
			info, err := sess.SubmitValidationContext(ctx, o.object, crowdval.Label(o.label))
			if err != nil {
				mismatch("op %d: replayed validation failed: %v", i, err)
				continue
			}
			got, _ := json.Marshal(stepJSON(info))
			want, _ := json.Marshal(o.step)
			if !bytes.Equal(got, want) {
				mismatch("op %d: step info %s differs from the served %s", i, got, want)
			}
		}
	}
	replayed, err := sess.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("snapshotting replay of %s: %w", s.name, err)
	}
	if !bytes.Equal(replayed, served) {
		mismatch("server snapshot (%d bytes) differs from the serial replay (%d bytes) at byte %d",
			len(served), len(replayed), firstDiff(served, replayed))
	}
	if p := precision(labelsOf(sess.Result()), s.data.truth); p != servedPrecision {
		mismatch("served precision %v differs from the replay's %v", servedPrecision, p)
	}
	if missing := missingAnswers(served, s.log); missing != "" {
		mismatch("%s", missing)
	}
	r, err := aggregation.FixedPointResidual(ctx, sess.ProbabilisticResult(), 1)
	if err != nil {
		return nil, err
	}
	if r >= 2*aggregation.DefaultSettleTolerance {
		mismatch("fixed-point residual %g exceeds %g", r, 2*aggregation.DefaultSettleTolerance)
	}
	return problems, nil
}

// missingAnswers checks that every acknowledged ingest answer is in the
// served snapshot with the label that was sent; it describes the first
// violation, or returns "".
func missingAnswers(served []byte, log []op) string {
	st, err := snapshot.Decode(served)
	if err != nil {
		return fmt.Sprintf("served snapshot does not decode: %v", err)
	}
	labels := make(map[[2]int64]int64, len(st.AnswerObjects))
	for i := range st.AnswerObjects {
		labels[[2]int64{st.AnswerObjects[i], st.AnswerWorkers[i]}] = st.AnswerLabels[i]
	}
	for _, o := range log {
		for _, a := range o.answers {
			got, ok := labels[[2]int64{int64(a.Object), int64(a.Worker)}]
			if !ok || got != int64(a.Label) {
				return fmt.Sprintf("acknowledged answer (object %d, worker %d, label %d) is not in the served state",
					a.Object, a.Worker, a.Label)
			}
		}
	}
	return ""
}

func sameRanking(got []crowdval.ScoredObject, want []server.ScoredObjectJSON) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Object != want[i].Object || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}

// stepJSON renders a library step the way the server's submit response does.
func stepJSON(info crowdval.StepInfo) server.StepInfoJSON {
	return server.StepInfoJSON{
		Object: info.Object, Label: int(info.Label), ErrorRate: info.ErrorRate, Uncertainty: info.Uncertainty,
		FaultyWorkers: info.FaultyWorkers, QuarantinedWorkers: info.QuarantinedWorkers,
		SuspectValidations: info.SuspectValidations,
	}
}

// checkGlobal checks the invariants of a served global ranking that hold
// whatever the other client did concurrently: at most k candidates, of known
// sessions, ordered by gain per cost descending, then session, then object.
func checkGlobal(g globalOp, known map[string]bool) error {
	if len(g.candidates) > g.k {
		return fmt.Errorf("global next returned %d candidates for k=%d", len(g.candidates), g.k)
	}
	ordered := sort.SliceIsSorted(g.candidates, func(i, j int) bool {
		a, b := g.candidates[i], g.candidates[j]
		if a.GainPerCost != b.GainPerCost {
			return a.GainPerCost > b.GainPerCost
		}
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		return a.Object < b.Object
	})
	if !ordered {
		return fmt.Errorf("global next candidates are not in gain-per-cost order")
	}
	for _, c := range g.candidates {
		if !known[c.Session] {
			return fmt.Errorf("global next names unknown session %q", c.Session)
		}
	}
	return nil
}

func labelsOf(a crowdval.DeterministicAssignment) []int {
	out := make([]int, len(a))
	for i, l := range a {
		out[i] = int(l)
	}
	return out
}

// precision is the share of objects whose label equals the truth.
func precision(labels, truth []int) float64 {
	if len(labels) != len(truth) || len(truth) == 0 {
		return 0
	}
	hit := 0
	for i, l := range labels {
		if l == truth[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
