package crowdval

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"crowdval/internal/cverr"
	"crowdval/internal/snapshot"
)

// hostileSnapshots re-encodes a valid snapshot with header fields its arrays
// do not match: an object count of 1<<62, a worker count of 1<<61 that the
// confusion array does not cover, and a worker count of 1<<62 with no
// confusions at all, whose k·m² wraps to 0 in 64-bit arithmetic. Sizing
// the answer set from any of these headers asks for more memory than exists.
func hostileSnapshots(t testing.TB, valid []byte) map[string][]byte {
	t.Helper()
	mutate := func(f func(*snapshot.State)) []byte {
		st, err := snapshot.Decode(valid)
		if err != nil {
			t.Fatal(err)
		}
		f(st)
		return snapshot.Encode(st)
	}
	return map[string][]byte{
		"huge object count":     mutate(func(st *snapshot.State) { st.NumObjects = 1 << 62 }),
		"inconsistent lengths":  mutate(func(st *snapshot.State) { st.NumWorkers = 1 << 61 }),
		"overflowing k·m² size": mutate(func(st *snapshot.State) { st.NumWorkers, st.Confusions = 1<<62, nil }),
	}
}

// TestResumeRejectsHostileHeader: a snapshot whose header disagrees with its
// arrays is refused with ErrBadSnapshot before anything is sized from the
// header — no panic, no giant allocation.
func TestResumeRejectsHostileHeader(t *testing.T) {
	s, err := NewSession(spammyCrowd(t, 12, 5, 1).Answers, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range hostileSnapshots(t, mustSnapshot(t, s)) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ResumeSession panicked: %v", r)
				}
			}()
			if _, err := ResumeSession(body); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("ResumeSession = %v, want ErrBadSnapshot", err)
			}
		})
	}
}

// resumeFuzzSeeds returns the checked-in snapshot fixtures of encoding
// versions 2 to 5 and the encoding of a minimal one-object session.
func resumeFuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*-v[2345].cvsn"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("snapshot fixtures: %v (%d found)", err, len(paths))
	}
	var seeds [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return append(seeds, snapshot.Encode(&snapshot.State{
		Strategy: "hybrid", NumObjects: 1, NumWorkers: 1, NumLabels: 2,
		AnswerObjects: []int64{0}, AnswerWorkers: []int64{0}, AnswerLabels: []int64{1},
		Validation: []int64{-1}, Assignment: []float64{0.5, 0.5},
		Confusions: []float64{0.5, 0.5, 0.5, 0.5},
	}))
}

// FuzzResumeSession feeds mutated snapshots to ResumeSession. The contract:
// never panic; every rejection wraps one of the package's sentinel errors;
// an accepted snapshot resumes to a session whose own Snapshot resumes again
// and re-encodes to the same bytes.
func FuzzResumeSession(f *testing.F) {
	for _, seed := range resumeFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ResumeSession(data)
		if err != nil {
			if cverr.Name(err) == "" {
				t.Fatalf("rejection wraps no sentinel: %v", err)
			}
			return
		}
		snap := mustSnapshot(t, s)
		again, err := ResumeSession(snap)
		if err != nil {
			t.Fatalf("the accepted session's snapshot does not resume: %v", err)
		}
		if !bytes.Equal(mustSnapshot(t, again), snap) {
			t.Fatal("snapshot → resume → snapshot is not a fixed point")
		}
	})
}
