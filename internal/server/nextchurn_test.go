package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"crowdval"
	"crowdval/internal/cverr"
)

// TestNextKChurnBitForBit extends the concurrent bit-for-bit contract to the
// maintained selection view: a delta-scoring session serves a storm of
// concurrent GET /next?k= requests interleaved with ingest and validation
// churn, every ranking respects the ordering contract, and the final state
// still matches a serial replay byte for byte — the ranked reads are
// genuinely read-only no matter how the maintained index is patched, rebuilt
// and memoized underneath them. It also pins the score_index_{builds,patches}
// observability: the JSON stats and the Prometheus exposition must both carry
// the maintained-view counters, with the patch path actually taken.
func TestNextKChurnBitForBit(t *testing.T) {
	const steps = 12
	c, _ := newTestServer(t, 0)

	d := testCrowd(t, 40, 10, 42)
	baseMatrix := matrixOf(d.Answers)
	var extras []crowdval.Answer
	for o := 0; o < d.Answers.NumObjects(); o++ {
		for w := 0; w < d.Answers.NumWorkers(); w++ {
			if baseMatrix[o][w] >= 0 && (o+w)%7 == 0 {
				extras = append(extras, crowdval.Answer{Object: o, Worker: w, Label: crowdval.Label(baseMatrix[o][w])})
				baseMatrix[o][w] = -1
			}
		}
	}
	chunks := make([][]crowdval.Answer, 3)
	for j, a := range extras {
		chunks[j%3] = append(chunks[j%3], a)
	}
	options := SessionConfig{
		Strategy: string(crowdval.StrategyUncertainty), Seed: 9, CandidateLimit: 8,
		Delta: true, DeltaScoring: true,
	}
	c.must("POST", "/v1/sessions", CreateSessionRequest{
		Name: "churn", Matrix: baseMatrix, NumLabels: 2, Options: options,
	}, nil)

	checkRanking := func(next NextResponse, k int) error {
		if len(next.Ranking) == 0 || len(next.Ranking) > k {
			return fmt.Errorf("ranking has %d entries for k=%d", len(next.Ranking), k)
		}
		if next.Object != next.Ranking[0].Object {
			return fmt.Errorf("object %d != ranking head %d", next.Object, next.Ranking[0].Object)
		}
		for i := 1; i < len(next.Ranking); i++ {
			prev, cur := next.Ranking[i-1], next.Ranking[i]
			if prev.Score < cur.Score || (prev.Score == cur.Score && prev.Object > cur.Object) {
				return fmt.Errorf("ranking order violated: %+v", next.Ranking)
			}
		}
		return nil
	}

	lowestUnvalidated := func(validated []int, total, n int) []int {
		isValidated := make(map[int]bool, len(validated))
		for _, o := range validated {
			isValidated[o] = true
		}
		var picks []int
		for o := 0; o < total && len(picks) < n; o++ {
			if !isValidated[o] {
				picks = append(picks, o)
			}
		}
		return picks
	}

	errs := make(chan error, 8)
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: a deterministic, selection-free mutation sequence. Concurrent
	// ranked reads must not be able to perturb it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for step := 0; step < steps; step++ {
			if step%4 == 0 && step/4 < len(chunks) {
				answers := make([]AnswerJSON, len(chunks[step/4]))
				for j, a := range chunks[step/4] {
					answers[j] = AnswerJSON{Object: a.Object, Worker: a.Worker, Label: int(a.Label)}
				}
				if status, e := c.do("POST", "/v1/sessions/churn/answers", IngestRequest{Answers: answers}, nil); e != nil {
					errs <- fmt.Errorf("ingest step %d: status %d %+v", step, status, e)
					return
				}
				continue
			}
			var result ResultResponse
			if status, e := c.do("GET", "/v1/sessions/churn/result", nil, &result); e != nil {
				errs <- fmt.Errorf("result step %d: status %d %+v", step, status, e)
				return
			}
			picks := lowestUnvalidated(result.Validated, result.Objects, 1)
			batch := make([]ValidationJSON, len(picks))
			for j, o := range picks {
				batch[j] = ValidationJSON{Object: o, Label: int(d.Truth[o])}
			}
			if status, e := c.do("POST", "/v1/sessions/churn/validations", SubmitRequest{Validations: batch}, nil); e != nil {
				errs <- fmt.Errorf("submit step %d: status %d %+v", step, status, e)
				return
			}
		}
	}()

	// Readers: hammer ranked selections with varying k until the writer is
	// done, checking the ordering contract on every response.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := 1 + (g+i)%5
				var next NextResponse
				if status, e := c.do("GET", fmt.Sprintf("/v1/sessions/churn/next?k=%d", k), nil, &next); e != nil {
					errs <- fmt.Errorf("reader %d: status %d %+v", g, status, e)
					return
				}
				if err := checkRanking(next, k); err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Serial replay of the writer's sequence on a plain Session — no server,
	// no concurrent reads — must land on the identical snapshot.
	answers, err := crowdval.NewAnswerSetFromMatrix(baseMatrix, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := crowdval.NewSession(answers, options.libraryOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for step := 0; step < steps; step++ {
		if step%4 == 0 && step/4 < len(chunks) {
			if err := ref.AddAnswers(ctx, chunks[step/4]); err != nil {
				t.Fatalf("replay ingest step %d: %v", step, err)
			}
			continue
		}
		validation := ref.Validation()
		var validated []int
		for o := 0; o < ref.NumObjects(); o++ {
			if validation.Validated(o) {
				validated = append(validated, o)
			}
		}
		picks := lowestUnvalidated(validated, ref.NumObjects(), 1)
		batch := make([]crowdval.ValidationInput, len(picks))
		for j, o := range picks {
			batch[j] = crowdval.ValidationInput{Object: o, Label: d.Truth[o]}
		}
		if _, err := ref.SubmitValidations(ctx, batch); err != nil {
			t.Fatalf("replay submit step %d: %v", step, err)
		}
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.snapshotBytes("churn"); !bytes.Equal(got, want) {
		t.Fatalf("server snapshot differs from serial replay (%d vs %d bytes) — ranked reads perturbed the session", len(got), len(want))
	}

	// Maintained-view observability: the JSON stats carry both counters, the
	// patch path was actually exercised by the churn, and the Prometheus
	// exposition exports them.
	var stats Stats
	c.must("GET", "/v1/metrics", nil, &stats)
	if stats.ScoreIndexBuilds == 0 {
		t.Fatalf("no score index builds recorded: %+v", stats)
	}
	if stats.ScoreIndexPatches == 0 {
		t.Fatalf("churn over a delta session recorded no index patches: %+v", stats)
	}
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	for _, name := range []string{"crowdval_score_index_builds_total", "crowdval_score_index_patches_total"} {
		if !strings.Contains(string(raw), name) {
			t.Fatalf("Prometheus exposition missing %s:\n%s", name, raw)
		}
	}
}

// TestSessionCountersFoldExactly pins the manager's session-statistics fold:
// with selections (per-session and global), delta ingests and validations
// racing over several resident sessions, the manager's EMIterations,
// DeltaIterations, ScoreIndexBuilds and ScoreIndexPatches must equal, not
// merely bound, the sums of the sessions' own cumulative statistics. Run it
// under -race -count=N to shake out lost or doubled folds.
func TestSessionCountersFoldExactly(t *testing.T) {
	m, err := NewManager(ManagerConfig{ParkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d := testCrowd(t, 30, 8, 61)
	extra := testCrowd(t, 30, 6, 67)
	names := []string{"fold-a", "fold-b", "fold-c"}
	for i, name := range names {
		opts := []crowdval.Option{
			crowdval.WithStrategy(crowdval.StrategyUncertainty),
			crowdval.WithSeed(int64(i + 1)),
			crowdval.WithCandidateLimit(6),
			crowdval.WithParallelism(1),
			crowdval.WithDeltaIngest(),
			crowdval.WithDeltaScoring(),
		}
		if err := m.Create(ctx, name, d.Answers.Clone(), opts...); err != nil {
			t.Fatal(err)
		}
	}
	// ingest returns extra worker w's answers on objects [from, to) as new
	// workers of the session crowd.
	ingest := func(w, from, to int) []crowdval.Answer {
		var answers []crowdval.Answer
		for o := from; o < to; o++ {
			if l := extra.Answers.Answer(o, w); l >= 0 {
				answers = append(answers, crowdval.Answer{Object: o, Worker: d.Answers.NumWorkers() + w, Label: l})
			}
		}
		return answers
	}
	benign := func(err error) bool {
		return err == nil || errors.Is(err, cverr.ErrAlreadyValidated) || errors.Is(err, cverr.ErrSessionDone) ||
			errors.Is(err, cverr.ErrNoCandidates)
	}

	const goroutines, rounds = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*(rounds+len(names)))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := names[(g+r)%len(names)]
				var err error
				switch (g + r) % 4 {
				case 0:
					_, err = m.NextObjects(ctx, name, 3)
				case 1:
					_, err = m.GlobalNext(ctx, 5, false)
				case 2:
					_, err = m.AddAnswers(ctx, name, ingest(g, 5*r, 5*r+10))
				case 3:
					var ranked []crowdval.ScoredObject
					if ranked, err = m.NextObjects(ctx, name, 1); err == nil {
						o := ranked[0].Object
						_, err = m.Submit(ctx, name, o, d.Truth[o])
					}
				}
				if !benign(err) {
					errs <- fmt.Errorf("goroutine %d round %d on %s: %w", g, r, name, err)
				}
			}
		}(g)
	}
	wg.Wait()
	// Then one more ingest per session and a burst of concurrent reads, so
	// several readers fold the same fresh index patch at once.
	for _, name := range names {
		if _, err := m.AddAnswers(ctx, name, ingest(goroutines, 0, 30)); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, name := range names {
				if _, err := m.NextObjects(ctx, name, 1+g%3); !benign(err) {
					errs <- fmt.Errorf("goroutine %d reading %s: %w", g, name, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A serial tail in which each fold site is the last to see a change on
	// some session, so none is covered by a later fold: fold-c last changes
	// under GlobalNext, fold-b under an ingest (settle), fold-a under a
	// per-session read.
	tail := ingest(goroutines+1, 0, 30)
	for _, name := range names {
		if _, err := m.AddAnswers(ctx, name, tail[:len(tail)/2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.GlobalNext(ctx, 5, false); err != nil {
		t.Fatal(err)
	}
	for _, name := range names[:2] {
		if _, err := m.AddAnswers(ctx, name, tail[len(tail)/2:]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.NextObjects(ctx, names[0], 3); err != nil {
		t.Fatal(err)
	}

	// Sample the manager first: the View calls below fold too, and must not
	// be what makes the totals add up.
	got := m.Stats()
	var want Stats
	for _, name := range names {
		if err := m.View(ctx, name, func(s *crowdval.Session) error {
			builds, patches := s.ScoreIndexStats()
			want.EMIterations += int64(s.TotalEMIterations())
			want.DeltaIterations += int64(s.TotalDeltaIterations())
			want.ScoreIndexBuilds += int64(builds)
			want.ScoreIndexPatches += int64(patches)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got.EMIterations != want.EMIterations || got.DeltaIterations != want.DeltaIterations ||
		got.ScoreIndexBuilds != want.ScoreIndexBuilds || got.ScoreIndexPatches != want.ScoreIndexPatches {
		t.Fatalf("manager totals (em %d, delta %d, builds %d, patches %d) != session sums (em %d, delta %d, builds %d, patches %d)",
			got.EMIterations, got.DeltaIterations, got.ScoreIndexBuilds, got.ScoreIndexPatches,
			want.EMIterations, want.DeltaIterations, want.ScoreIndexBuilds, want.ScoreIndexPatches)
	}
	if want.DeltaIterations == 0 || want.ScoreIndexBuilds == 0 || want.ScoreIndexPatches == 0 {
		t.Fatalf("the churn left a counter untouched (delta %d, builds %d, patches %d): the test would prove nothing",
			want.DeltaIterations, want.ScoreIndexBuilds, want.ScoreIndexPatches)
	}
}
