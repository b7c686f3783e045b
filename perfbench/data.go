package main

import (
	"fmt"
	"math/rand"
	"sort"

	"crowdval"
	"crowdval/internal/server"
	"crowdval/internal/simulation"
)

// dataset is one synthetic crowd: the answers sessions are created with,
// a pool of further answers (never part of the initial set) that ingest
// traffic streams in, and the ground truth the simulated expert answers
// from.
type dataset struct {
	objects, workers, labels int
	initial                  []server.AnswerJSON
	pool                     []server.AnswerJSON
	truth                    []int
}

// makeDataset generates initialPerObject+extraPerObject answers per object
// and splits each object's answers at random into the initial set and the
// ingest pool. Inputs depend on seed alone.
func makeDataset(objects, workers, initialPerObject, extraPerObject int, seed int64) (*dataset, error) {
	d, err := simulation.GenerateCrowd(simulation.CrowdConfig{
		NumObjects:       objects,
		NumWorkers:       workers,
		NumLabels:        2,
		AnswersPerObject: initialPerObject + extraPerObject,
		NormalAccuracy:   0.7,
		Mix:              simulation.WorkerMix{Normal: 0.75, RandomSpammer: 0.25},
		Seed:             seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ds := &dataset{objects: objects, workers: workers, labels: 2, truth: make([]int, objects)}
	for o := 0; o < objects; o++ {
		ds.truth[o] = int(d.Truth[o])
		answers := d.Answers.ObjectAnswers(o)
		for i, p := range rng.Perm(len(answers)) {
			a := server.AnswerJSON{Object: o, Worker: answers[p].Worker, Label: int(answers[p].Label)}
			if i < initialPerObject {
				ds.initial = append(ds.initial, a)
			} else {
				ds.pool = append(ds.pool, a)
			}
		}
	}
	// Sessions are created from answers in (object, worker) order, the same
	// order the library replay inserts them in.
	sort.Slice(ds.initial, func(i, j int) bool {
		a, b := ds.initial[i], ds.initial[j]
		return a.Object < b.Object || a.Object == b.Object && a.Worker < b.Worker
	})
	return ds, nil
}

// stream returns the pool in a seeded session-specific order: the answers a
// session ingests, each (object, worker) pair at most once.
func (d *dataset) stream(seed int64) []server.AnswerJSON {
	out := append([]server.AnswerJSON(nil), d.pool...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sessionSpec is one session of a workload: its creation request, the
// client that owns it (the only one that ever writes to it or reads its
// rankings) and the log of operations the server acknowledged, in order.
type sessionSpec struct {
	name   string
	client int
	data   *dataset
	create server.CreateSessionRequest
	stream []server.AnswerJSON
	cursor int
	log    []op
}

func newSessionSpec(name string, client int, d *dataset, opts server.SessionConfig) *sessionSpec {
	return &sessionSpec{
		name:   name,
		client: client,
		data:   d,
		create: server.CreateSessionRequest{
			Name: name, Objects: d.objects, Workers: d.workers, NumLabels: d.labels,
			Answers: d.initial, Options: opts,
		},
	}
}

// nextBatch takes the next n never-sent answers of the session's stream.
func (s *sessionSpec) nextBatch(n int) ([]server.AnswerJSON, error) {
	if s.cursor+n > len(s.stream) {
		return nil, fmt.Errorf("session %s: ingest pool of %d answers exhausted", s.name, len(s.stream))
	}
	b := s.stream[s.cursor : s.cursor+n]
	s.cursor += n
	return b, nil
}

// opKind enumerates the per-session operations a workload sends.
type opKind int

const (
	opIngest opKind = iota // POST .../answers
	opNext                 // GET .../next?k=
	opStep                 // GET .../next?k=1, then POST .../validations
)

// op is one acknowledged per-session operation with the server's answer,
// which the replay must reproduce.
type op struct {
	kind    opKind
	answers []server.AnswerJSON       // opIngest
	k       int                       // opNext
	ranking []server.ScoredObjectJSON // opNext, and opStep's k=1 ranking
	object  int                       // opStep
	label   int                       // opStep
	step    server.StepInfoJSON       // opStep: the submit response
}

// globalOp is one acknowledged GET /v1/next with its answer.
type globalOp struct {
	k          int
	candidates []server.GlobalCandidateJSON
}

// answerSet builds the library answer set a creation request describes,
// inserting answers in request order as the server does.
func answerSet(req server.CreateSessionRequest) (*crowdval.AnswerSet, error) {
	answers, err := crowdval.NewAnswerSet(req.Objects, req.Workers, req.NumLabels)
	if err != nil {
		return nil, err
	}
	for _, a := range req.Answers {
		if err := answers.SetAnswer(a.Object, a.Worker, crowdval.Label(a.Label)); err != nil {
			return nil, err
		}
	}
	return answers, nil
}

// libraryOptions translates the wire options the workloads use into the
// library options the server derives from them.
func libraryOptions(c server.SessionConfig) []crowdval.Option {
	var opts []crowdval.Option
	if c.Strategy != "" {
		opts = append(opts, crowdval.WithStrategy(crowdval.StrategyName(c.Strategy)))
	}
	if c.Budget > 0 {
		opts = append(opts, crowdval.WithBudget(c.Budget))
	}
	if c.CandidateLimit > 0 {
		opts = append(opts, crowdval.WithCandidateLimit(c.CandidateLimit))
	}
	if c.Seed != 0 {
		opts = append(opts, crowdval.WithSeed(c.Seed))
	}
	if c.Delta {
		opts = append(opts, crowdval.WithDeltaIngest())
	}
	if c.DeltaScoring {
		opts = append(opts, crowdval.WithDeltaScoring())
	}
	if c.CostBudget > 0 {
		opts = append(opts, crowdval.WithCostBudget(crowdval.CostTracker{Theta: c.CostTheta, Budget: c.CostBudget}))
	}
	return opts
}

// toAnswers converts wire answers to library answers.
func toAnswers(in []server.AnswerJSON) []crowdval.Answer {
	out := make([]crowdval.Answer, len(in))
	for i, a := range in {
		out[i] = crowdval.Answer{Object: a.Object, Worker: a.Worker, Label: crowdval.Label(a.Label)}
	}
	return out
}
