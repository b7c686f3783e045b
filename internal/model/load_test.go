package model

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// loadCase is one input of the bulk loader: dimensions and the answers in
// input order.
type loadCase struct {
	name    string
	n, k, m int
	answers []Answer
}

// setAnswerLoop is the reference the loader must match: SetAnswer per
// answer on an empty set, stopping at the first error.
func setAnswerLoop(n, k, m int, answers []Answer) (*AnswerSet, error) {
	a, err := NewAnswerSet(n, k, m)
	if err != nil {
		return nil, err
	}
	for _, x := range answers {
		if err := a.SetAnswer(x.Object, x.Worker, x.Label); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// sameAnswerSet reports how got differs from want in dimensions, count or
// any object or worker view ("" when it does not).
func sameAnswerSet(got, want *AnswerSet) string {
	if got.NumObjects() != want.NumObjects() || got.NumWorkers() != want.NumWorkers() || got.NumLabels() != want.NumLabels() {
		return fmt.Sprintf("dims %s, want %s", got, want)
	}
	if got.AnswerCount() != want.AnswerCount() {
		return fmt.Sprintf("count %d, want %d", got.AnswerCount(), want.AnswerCount())
	}
	for o := 0; o < want.NumObjects(); o++ {
		g, w := got.ObjectView(o), want.ObjectView(o)
		if len(g) != len(w) {
			return fmt.Sprintf("object %d: %v, want %v", o, g, w)
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Sprintf("object %d: %v, want %v", o, g, w)
			}
		}
	}
	for wk := 0; wk < want.NumWorkers(); wk++ {
		g, w := got.WorkerView(wk), want.WorkerView(wk)
		if len(g) != len(w) {
			return fmt.Sprintf("worker %d: %v, want %v", wk, g, w)
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Sprintf("worker %d: %v, want %v", wk, g, w)
			}
		}
	}
	return ""
}

// columns splits answers into the loader's object, worker and label
// columns.
func columns(answers []Answer) (objects, workers, labels []int64) {
	for _, x := range answers {
		objects = append(objects, int64(x.Object))
		workers = append(workers, int64(x.Worker))
		labels = append(labels, int64(x.Label))
	}
	return objects, workers, labels
}

// loadAll runs LoadAnswerColumns on the columns of answers.
func loadAll(n, k, m int, answers []Answer) (*AnswerSet, error) {
	objects, workers, labels := columns(answers)
	return LoadAnswerColumns(n, k, m, objects, workers, labels)
}

// checkLoad compares LoadAnswerColumns, and LoadAnswers over the same
// answers, with the SetAnswer loop on one input: the same error (message
// included), or the same views and count.
func checkLoad(t *testing.T, c loadCase) {
	t.Helper()
	got, err := loadAll(c.n, c.k, c.m, c.answers)
	checkLoaded(t, c, got, err)
	got, err = LoadAnswers(c.n, c.k, c.m, len(c.answers), func(i int) Answer { return c.answers[i] })
	checkLoaded(t, c, got, err)
}

// checkLoaded compares one loader's outcome on c with the SetAnswer loop's.
func checkLoaded(t *testing.T, c loadCase, got *AnswerSet, err error) {
	t.Helper()
	want, wantErr := setAnswerLoop(c.n, c.k, c.m, c.answers)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, want %v", c.name, err, wantErr)
	}
	for _, sentinel := range []error{ErrOutOfRange, ErrInvalidLabel, ErrDimensionMismatch} {
		if errors.Is(err, sentinel) != errors.Is(wantErr, sentinel) {
			t.Fatalf("%s: error %v does not match %v on %v", c.name, err, wantErr, sentinel)
		}
	}
	if err != nil {
		return
	}
	if diff := sameAnswerSet(got, want); diff != "" {
		t.Fatalf("%s: %s", c.name, diff)
	}
}

// randomLoadCases generates the loader's input classes: canonical (object,
// worker) order, shuffled, duplicate pairs (last wins), NoLabel entries,
// and inputs with an out-of-range index or an invalid label somewhere in
// the middle.
func randomLoadCases(rng *rand.Rand, rounds int) []loadCase {
	var cases []loadCase
	for r := 0; r < rounds; r++ {
		n, k, m := 1+rng.Intn(9), 1+rng.Intn(7), 1+rng.Intn(4)
		var canon []Answer
		for o := 0; o < n; o++ {
			for w := 0; w < k; w++ {
				if rng.Intn(3) > 0 {
					canon = append(canon, Answer{Object: o, Worker: w, Label: Label(rng.Intn(m))})
				}
			}
		}
		shuffled := append([]Answer(nil), canon...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		dup := append([]Answer(nil), shuffled...)
		for i := 0; i < len(canon)/2+1; i++ {
			x := Answer{Object: rng.Intn(n), Worker: rng.Intn(k), Label: Label(rng.Intn(m))}
			if rng.Intn(3) == 0 {
				x.Label = NoLabel
			}
			at := rng.Intn(len(dup) + 1)
			dup = append(dup[:at], append([]Answer{x}, dup[at:]...)...)
		}
		withNoLabel := append([]Answer(nil), canon...)
		for i := range withNoLabel {
			if rng.Intn(4) == 0 {
				withNoLabel[i].Label = NoLabel
			}
		}
		cases = append(cases,
			loadCase{fmt.Sprintf("canonical-%d", r), n, k, m, canon},
			loadCase{fmt.Sprintf("shuffled-%d", r), n, k, m, shuffled},
			loadCase{fmt.Sprintf("duplicates-%d", r), n, k, m, dup},
			loadCase{fmt.Sprintf("nolabel-%d", r), n, k, m, withNoLabel},
		)
		for _, bad := range []Answer{
			{Object: n, Worker: 0, Label: 0},
			{Object: -1, Worker: 0, Label: 0},
			{Object: 0, Worker: k, Label: 0},
			{Object: 0, Worker: -1, Label: 0},
			{Object: 0, Worker: 0, Label: Label(m)},
			{Object: 0, Worker: 0, Label: -2},
			{Object: n, Worker: 0, Label: Label(m)}, // range is checked before the label
		} {
			in := append([]Answer(nil), dup...)
			at := rng.Intn(len(in) + 1)
			in = append(in[:at], append([]Answer{bad}, in[at:]...)...)
			// A second bad answer later: only the first one's error counts.
			in = append(in, Answer{Object: 0, Worker: 0, Label: Label(m + 1)})
			cases = append(cases, loadCase{fmt.Sprintf("invalid-%d-%d-%d-%d", r, bad.Object, bad.Worker, bad.Label), n, k, m, in})
		}
	}
	return append(cases,
		loadCase{"empty", 3, 2, 2, nil},
		loadCase{"bad-dims", 0, 2, 2, []Answer{{Object: 0, Worker: 0, Label: 0}}},
		loadCase{"bad-labels", 2, 2, 0, nil},
		loadCase{"only-nolabel", 2, 2, 2, []Answer{{0, 1, NoLabel}, {1, 0, NoLabel}}},
		loadCase{"set-then-remove", 2, 2, 2, []Answer{{0, 1, 1}, {1, 0, 0}, {0, 1, NoLabel}}},
		loadCase{"remove-then-set", 2, 2, 2, []Answer{{0, 1, NoLabel}, {0, 1, 1}}},
		loadCase{"repeat-in-order", 2, 2, 2, []Answer{{0, 0, 0}, {0, 0, 1}, {1, 1, 1}}},
	)
}

// TestLoadAnswersMatchesSetAnswerLoop is the loader's equivalence property:
// on every input class it builds the views and count the SetAnswer loop
// builds, or fails with the loop's first error.
func TestLoadAnswersMatchesSetAnswerLoop(t *testing.T) {
	for _, c := range randomLoadCases(rand.New(rand.NewSource(22)), 60) {
		checkLoad(t, c)
	}
}

// TestLoadAnswerColumnsRejectsUnequalColumns: columns of different lengths are a
// dimension mismatch, whichever column is off.
func TestLoadAnswerColumnsRejectsUnequalColumns(t *testing.T) {
	o, w, l := columns([]Answer{{0, 0, 1}, {1, 1, 0}})
	for _, c := range [][3][]int64{{o[:1], w, l}, {o, w[:1], l}, {o, w, l[:1]}} {
		if _, err := LoadAnswerColumns(2, 2, 2, c[0], c[1], c[2]); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("columns of lengths %d, %d, %d: %v, want ErrDimensionMismatch", len(c[0]), len(c[1]), len(c[2]), err)
		}
	}
}

// TestLoadAnswersRowsAreCapped: rows carved from one backing array must
// not share capacity, so growing one row after a load (inserting at its
// end, its middle or its start, per object and per worker) leaves every
// other row as it was.
func TestLoadAnswersRowsAreCapped(t *testing.T) {
	const n, k, m = 12, 9, 3
	rng := rand.New(rand.NewSource(5))
	var canon []Answer
	for o := 0; o < n; o++ {
		for w := 0; w < k; w++ {
			// Leave worker 0, worker k−1 and the middle worker out of some
			// rows, so inserts land at a row's start, end and middle.
			if (w == 0 || w == k-1 || w == k/2) && o%2 == 0 {
				continue
			}
			canon = append(canon, Answer{Object: o, Worker: w, Label: Label(rng.Intn(m))})
		}
	}
	for _, w := range []int{k - 1, 0, k / 2} {
		for o := 0; o < n; o += 2 {
			loaded, err := loadAll(n, k, m, canon)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := setAnswerLoop(n, k, m, canon)
			if err := loaded.SetAnswer(o, w, 1); err != nil {
				t.Fatal(err)
			}
			_ = want.SetAnswer(o, w, 1)
			if diff := sameAnswerSet(loaded, want); diff != "" {
				t.Fatalf("after inserting (%d, %d): %s", o, w, diff)
			}
		}
	}
	// Remove then re-insert, then grow the same rows twice: the freed slot
	// is reused in place and the next insert reallocates.
	loaded, _ := loadAll(n, k, m, canon)
	want, _ := setAnswerLoop(n, k, m, canon)
	for _, x := range []Answer{{1, 3, NoLabel}, {1, 3, 2}, {2, 0, 1}, {2, 8, 1}, {3, 4, NoLabel}, {4, 0, 2}, {4, 8, 0}} {
		_ = loaded.SetAnswer(x.Object, x.Worker, x.Label)
		_ = want.SetAnswer(x.Object, x.Worker, x.Label)
		if diff := sameAnswerSet(loaded, want); diff != "" {
			t.Fatalf("after SetAnswer%v: %s", x, diff)
		}
	}
	// Masking and restoring a worker touches every object row it answered.
	for _, w := range []int{4, 0, 8} {
		stash := loaded.MaskWorker(w)
		wantStash := want.MaskWorker(w)
		if diff := sameAnswerSet(loaded, want); diff != "" {
			t.Fatalf("after masking worker %d: %s", w, diff)
		}
		loaded.RestoreWorker(w, stash)
		want.RestoreWorker(w, wantStash)
		if diff := sameAnswerSet(loaded, want); diff != "" {
			t.Fatalf("after restoring worker %d: %s", w, diff)
		}
	}
}

// decodeLoadCase maps fuzz bytes onto a loader input: three dimension bytes
// (0 is a possible, invalid dimension), then one (object, worker, label)
// byte triple per answer. Each index ranges one past both ends of its
// dimension and each label over NoLabel, the valid labels and one invalid
// one, so most answers are valid and some are not.
func decodeLoadCase(data []byte) loadCase {
	c := loadCase{name: "fuzz"}
	if len(data) < 3 {
		return c
	}
	c.n, c.k, c.m = int(data[0]%10), int(data[1]%8), int(data[2]%5)
	for b := data[3:]; len(b) >= 3; b = b[3:] {
		c.answers = append(c.answers, Answer{
			Object: int(b[0])%(c.n+2) - 1,
			Worker: int(b[1])%(c.k+2) - 1,
			Label:  Label(int(b[2])%(c.m+2) - 1),
		})
	}
	return c
}

// encodeLoadCase is decodeLoadCase's inverse for inputs inside its range.
func encodeLoadCase(c loadCase) []byte {
	out := []byte{byte(c.n), byte(c.k), byte(c.m)}
	for _, x := range c.answers {
		out = append(out, byte(x.Object+1), byte(x.Worker+1), byte(int(x.Label)+1))
	}
	return out
}

// FuzzLoadAnswers checks the loader's equivalence with the SetAnswer loop
// on arbitrary inputs, seeded with the property test's cases and the
// checked-in corpus under testdata/fuzz/FuzzLoadAnswers.
func FuzzLoadAnswers(f *testing.F) {
	for _, c := range randomLoadCases(rand.New(rand.NewSource(22)), 3) {
		if c.n < 10 && c.k < 8 && c.m < 5 && c.n > 0 && c.k > 0 && c.m > 0 && len(c.answers) < 200 {
			in := true
			for _, x := range c.answers {
				in = in && x.Object >= -1 && x.Object <= c.n && x.Worker >= -1 && x.Worker <= c.k && x.Label >= -1 && int(x.Label) <= c.m
			}
			if in {
				f.Add(encodeLoadCase(c))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, decodeLoadCase(data))
	})
}
