package model

import (
	"fmt"
	"sort"

	"crowdval/internal/cverr"
)

// AnswerSet is the quadruple N = <O, W, L, M>: n objects, k workers, m labels
// and an n×k answer matrix whose entries are labels or NoLabel.
//
// The matrix is stored sparsely as two mutually consistent adjacency lists:
// per object the (worker, label) pairs sorted by worker, and per worker the
// (object, label) pairs sorted by object. Crowdsourcing matrices are sparse —
// each worker answers a bounded number of questions (§5.4 of the paper) — so
// this keeps memory and full-matrix traversals proportional to the number of
// answers rather than to n×k, which is what makes aggregation over large
// crowds (tens of thousands of objects, hundreds of workers) tractable.
//
// The zero value is not usable; construct with NewAnswerSet.
type AnswerSet struct {
	numObjects int
	numWorkers int
	numLabels  int

	// byObject[o] lists the answers given to object o, sorted by worker.
	byObject [][]WorkerAnswer
	// byWorker[w] lists the answers given by worker w, sorted by object.
	byWorker [][]ObjectAnswer
	// count is the total number of recorded answers.
	count int

	// Optional human-readable names. When set, their lengths match the
	// respective dimensions; they carry no semantics for the algorithms.
	ObjectNames []string
	WorkerNames []string
	LabelNames  []string

	// Dirty-frontier tracking (see dirty.go). nil maps = tracking disabled.
	dirtyObjects map[int]struct{}
	dirtyWorkers map[int]struct{}
}

// NewAnswerSet creates an empty answer set for the given dimensions. All
// entries of the answer matrix start as NoLabel.
func NewAnswerSet(numObjects, numWorkers, numLabels int) (*AnswerSet, error) {
	if numObjects <= 0 || numWorkers <= 0 || numLabels <= 0 {
		return nil, fmt.Errorf("%w: invalid answer set dimensions %d×%d with %d labels",
			ErrDimensionMismatch, numObjects, numWorkers, numLabels)
	}
	return &AnswerSet{
		numObjects: numObjects,
		numWorkers: numWorkers,
		numLabels:  numLabels,
		byObject:   make([][]WorkerAnswer, numObjects),
		byWorker:   make([][]ObjectAnswer, numWorkers),
	}, nil
}

// MustNewAnswerSet is like NewAnswerSet but panics on invalid dimensions.
// It is intended for tests and examples with constant dimensions.
func MustNewAnswerSet(numObjects, numWorkers, numLabels int) *AnswerSet {
	a, err := NewAnswerSet(numObjects, numWorkers, numLabels)
	if err != nil {
		panic(err)
	}
	return a
}

// NumObjects returns n, the number of objects.
func (a *AnswerSet) NumObjects() int { return a.numObjects }

// NumWorkers returns k, the number of workers.
func (a *AnswerSet) NumWorkers() int { return a.numWorkers }

// NumLabels returns m, the number of labels.
func (a *AnswerSet) NumLabels() int { return a.numLabels }

// Sentinel errors of the data model, aliased from the shared cverr package so
// errors.Is matches across layers (the root crowdval package re-exports the
// same values).
var (
	// ErrOutOfRange is returned when an object, worker or label index is
	// outside the answer set's dimensions.
	ErrOutOfRange = cverr.ErrOutOfRange
	// ErrInvalidLabel is returned when a label is not valid for the task.
	ErrInvalidLabel = cverr.ErrInvalidLabel
	// ErrDimensionMismatch is returned when dimensions are non-positive,
	// would shrink, or disagree between components.
	ErrDimensionMismatch = cverr.ErrDimensionMismatch
)

// objectPos returns the position of worker in byObject[object] or, if absent,
// the position where it would be inserted, plus whether it was found.
func (a *AnswerSet) objectPos(object, worker int) (int, bool) {
	row := a.byObject[object]
	i := sort.Search(len(row), func(i int) bool { return row[i].Worker >= worker })
	return i, i < len(row) && row[i].Worker == worker
}

// workerPos returns the position of object in byWorker[worker] or, if absent,
// the position where it would be inserted, plus whether it was found.
func (a *AnswerSet) workerPos(worker, object int) (int, bool) {
	col := a.byWorker[worker]
	i := sort.Search(len(col), func(i int) bool { return col[i].Object >= object })
	return i, i < len(col) && col[i].Object == object
}

// checkAnswer returns the error SetAnswer fails with for the answer, nil
// when SetAnswer accepts it.
func (a *AnswerSet) checkAnswer(object, worker int, label Label) error {
	if object < 0 || object >= a.numObjects || worker < 0 || worker >= a.numWorkers {
		return fmt.Errorf("%w: object %d, worker %d (dims %d×%d)",
			ErrOutOfRange, object, worker, a.numObjects, a.numWorkers)
	}
	if label != NoLabel && !label.Valid(a.numLabels) {
		return fmt.Errorf("%w: label %d (task has %d labels)", ErrInvalidLabel, label, a.numLabels)
	}
	return nil
}

// SetAnswer records that worker answered object with the given label.
// Passing NoLabel removes a previously recorded answer.
func (a *AnswerSet) SetAnswer(object, worker int, label Label) error {
	if err := a.checkAnswer(object, worker, label); err != nil {
		return err
	}
	oi, oFound := a.objectPos(object, worker)
	if label == NoLabel {
		if oFound {
			a.byObject[object] = append(a.byObject[object][:oi], a.byObject[object][oi+1:]...)
			wi, _ := a.workerPos(worker, object)
			a.byWorker[worker] = append(a.byWorker[worker][:wi], a.byWorker[worker][wi+1:]...)
			a.count--
			a.markAnswerDirty(object, worker)
		}
		return nil
	}
	if oFound {
		a.byObject[object][oi].Label = label
		wi, _ := a.workerPos(worker, object)
		a.byWorker[worker][wi].Label = label
		a.markAnswerDirty(object, worker)
		return nil
	}
	a.byObject[object] = append(a.byObject[object], WorkerAnswer{})
	copy(a.byObject[object][oi+1:], a.byObject[object][oi:])
	a.byObject[object][oi] = WorkerAnswer{Worker: worker, Label: label}
	wi, _ := a.workerPos(worker, object)
	a.byWorker[worker] = append(a.byWorker[worker], ObjectAnswer{})
	copy(a.byWorker[worker][wi+1:], a.byWorker[worker][wi:])
	a.byWorker[worker][wi] = ObjectAnswer{Object: object, Label: label}
	a.count++
	a.markAnswerDirty(object, worker)
	return nil
}

// LoadAnswers builds the numObjects×numWorkers answer set with numLabels
// labels that recording at(0), …, at(count−1) one after another with
// SetAnswer on an empty set builds: it collects the answers into columns
// for LoadAnswerColumns.
func LoadAnswers(numObjects, numWorkers, numLabels, count int, at func(i int) Answer) (*AnswerSet, error) {
	cols := make([]int64, 3*count)
	objects, workers, labels := cols[:count], cols[count:2*count], cols[2*count:]
	for i := 0; i < count; i++ {
		x := at(i)
		objects[i], workers[i], labels[i] = int64(x.Object), int64(x.Worker), int64(x.Label)
	}
	return LoadAnswerColumns(numObjects, numWorkers, numLabels, objects, workers, labels)
}

// LoadAnswerColumns builds the numObjects×numWorkers answer set with
// numLabels labels that recording the answers (objects[i], workers[i],
// labels[i]) one after another with SetAnswer on an empty set builds, and
// fails with the error of the first answer SetAnswer would reject: a later
// answer for the same (object, worker) pair replaces an earlier one, and
// NoLabel removes the pair. Columns of unequal lengths are
// ErrDimensionMismatch.
//
// It makes no sorted insert per answer. Answers in strictly increasing
// (object, worker) order, as Snapshot writes them, load in two linear
// passes: one checks each answer and its order and counts it per object and
// per worker; the other writes it by index into one backing array per side,
// each row carved at its count. Answers in any other order are first
// canonicalized by one sort. Each row's capacity ends where the next row
// begins, so a later insert into a row reallocates that row instead of
// overwriting its neighbour.
func LoadAnswerColumns(numObjects, numWorkers, numLabels int, objects, workers, labels []int64) (*AnswerSet, error) {
	a, err := NewAnswerSet(numObjects, numWorkers, numLabels)
	if err != nil {
		return nil, err
	}
	if len(workers) != len(objects) || len(labels) != len(objects) {
		return nil, fmt.Errorf("%w: answer columns of lengths %d, %d and %d",
			ErrDimensionMismatch, len(objects), len(workers), len(labels))
	}
	// Row starts, offset by one so the counting pass and the prefix sum
	// share the arrays.
	objStart := make([]int, numObjects+1)
	wrkStart := make([]int, numWorkers+1)
	ordered := true
	prevObject, prevWorker := -1, 0
	for i := range objects {
		o, w, l := int(objects[i]), int(workers[i]), Label(labels[i])
		if uint(o) >= uint(numObjects) || uint(w) >= uint(numWorkers) || l != NoLabel && uint(l) >= uint(numLabels) {
			return nil, a.checkAnswer(o, w, l) // the same test, with its error
		}
		if !ordered {
			continue
		}
		if o < prevObject || o == prevObject && w <= prevWorker {
			ordered = false
			continue
		}
		prevObject, prevWorker = o, w
		if l != NoLabel {
			objStart[o+1]++
			wrkStart[w+1]++
		}
	}
	if !ordered {
		objects, workers, labels = canonicalAnswers(objects, workers, labels)
		clear(objStart)
		clear(wrkStart)
		for i := range objects {
			objStart[objects[i]+1]++
			wrkStart[workers[i]+1]++
		}
	}
	for o := 0; o < numObjects; o++ {
		objStart[o+1] += objStart[o]
	}
	for w := 0; w < numWorkers; w++ {
		wrkStart[w+1] += wrkStart[w]
	}
	a.count = objStart[numObjects]
	objBuf := make([]WorkerAnswer, a.count)
	wrkBuf := make([]ObjectAnswer, a.count)
	for o := range a.byObject {
		if lo, hi := objStart[o], objStart[o+1]; hi > lo {
			a.byObject[o] = objBuf[lo:hi:hi]
		}
	}
	for w := range a.byWorker {
		if lo, hi := wrkStart[w], wrkStart[w+1]; hi > lo {
			a.byWorker[w] = wrkBuf[lo:hi:hi]
		}
	}
	// The answers come object-major, so the object side fills in input
	// order and each worker's column in object order; wrkStart[w] serves as
	// the write position of worker w.
	j := 0
	for i := range objects {
		if l := Label(labels[i]); l != NoLabel {
			o, w := int(objects[i]), int(workers[i])
			objBuf[j] = WorkerAnswer{Worker: w, Label: l}
			j++
			wrkBuf[wrkStart[w]] = ObjectAnswer{Object: o, Label: l}
			wrkStart[w]++
		}
	}
	return a, nil
}

// canonicalAnswers returns the outcome of recording the answers of the
// columns in input order, as columns in strictly increasing (object,
// worker) order: the last answer of each pair, with the pairs whose last
// answer is NoLabel left out.
func canonicalAnswers(objects, workers, labels []int64) (objs, wrks, lbls []int64) {
	all := make([]Answer, len(objects))
	for i := range all {
		all[i] = Answer{Object: int(objects[i]), Worker: int(workers[i]), Label: Label(labels[i])}
	}
	sort.SliceStable(all, func(i, j int) bool {
		return all[i].Object < all[j].Object || all[i].Object == all[j].Object && all[i].Worker < all[j].Worker
	})
	for i, x := range all {
		if i+1 < len(all) && all[i+1].Object == x.Object && all[i+1].Worker == x.Worker {
			continue // a later answer for the pair wins
		}
		if x.Label != NoLabel {
			objs = append(objs, int64(x.Object))
			wrks = append(wrks, int64(x.Worker))
			lbls = append(lbls, int64(x.Label))
		}
	}
	return objs, wrks, lbls
}

// Answer returns M(o, w): the label worker assigned to object, or NoLabel if
// the worker did not answer. Indices outside the matrix yield NoLabel.
func (a *AnswerSet) Answer(object, worker int) Label {
	if object < 0 || object >= a.numObjects || worker < 0 || worker >= a.numWorkers {
		return NoLabel
	}
	if i, found := a.objectPos(object, worker); found {
		return a.byObject[object][i].Label
	}
	return NoLabel
}

// Answered reports whether the worker provided a label for the object.
func (a *AnswerSet) Answered(object, worker int) bool {
	return a.Answer(object, worker) != NoLabel
}

// ObjectAnswers returns, for one object, the (worker, label) pairs of all
// workers that answered it, sorted by worker. The slice is freshly allocated;
// use ObjectView for allocation-free access on hot paths.
func (a *AnswerSet) ObjectAnswers(object int) []WorkerAnswer {
	if object < 0 || object >= a.numObjects || len(a.byObject[object]) == 0 {
		return nil
	}
	return append([]WorkerAnswer(nil), a.byObject[object]...)
}

// ObjectView returns the internal adjacency list of one object: the (worker,
// label) pairs of all workers that answered it, sorted by worker. The slice
// is a view into the answer set — callers must not modify it, and it is only
// valid until the next mutation of the answer set.
func (a *AnswerSet) ObjectView(object int) []WorkerAnswer {
	if object < 0 || object >= a.numObjects {
		return nil
	}
	return a.byObject[object]
}

// WorkerAnswer pairs a worker index with the label it assigned.
type WorkerAnswer struct {
	Worker int
	Label  Label
}

// WorkerObjects returns the indices of all objects the worker answered, in
// ascending order.
func (a *AnswerSet) WorkerObjects(worker int) []int {
	if worker < 0 || worker >= a.numWorkers || len(a.byWorker[worker]) == 0 {
		return nil
	}
	out := make([]int, len(a.byWorker[worker]))
	for i, oa := range a.byWorker[worker] {
		out[i] = oa.Object
	}
	return out
}

// WorkerView returns the internal adjacency list of one worker: the (object,
// label) pairs of all objects the worker answered, sorted by object. The
// slice is a view into the answer set — callers must not modify it, and it is
// only valid until the next mutation of the answer set.
func (a *AnswerSet) WorkerView(worker int) []ObjectAnswer {
	if worker < 0 || worker >= a.numWorkers {
		return nil
	}
	return a.byWorker[worker]
}

// AnswerCount returns the total number of non-empty entries of the answer
// matrix.
func (a *AnswerSet) AnswerCount() int { return a.count }

// Sparsity returns the fraction of empty entries in the answer matrix,
// in [0, 1]. A fully answered matrix has sparsity 0.
func (a *AnswerSet) Sparsity() float64 {
	total := a.numObjects * a.numWorkers
	if total == 0 {
		return 0
	}
	return 1 - float64(a.count)/float64(total)
}

// LabelCounts returns, for one object, how many workers chose each label.
// The returned slice has length NumLabels.
func (a *AnswerSet) LabelCounts(object int) []int {
	counts := make([]int, a.numLabels)
	if object < 0 || object >= a.numObjects {
		return counts
	}
	for _, wa := range a.byObject[object] {
		counts[wa.Label]++
	}
	return counts
}

// Clone returns a deep copy of the answer set.
func (a *AnswerSet) Clone() *AnswerSet {
	c := &AnswerSet{
		numObjects: a.numObjects,
		numWorkers: a.numWorkers,
		numLabels:  a.numLabels,
		byObject:   make([][]WorkerAnswer, a.numObjects),
		byWorker:   make([][]ObjectAnswer, a.numWorkers),
		count:      a.count,
	}
	for o, row := range a.byObject {
		if len(row) > 0 {
			c.byObject[o] = append([]WorkerAnswer(nil), row...)
		}
	}
	for w, col := range a.byWorker {
		if len(col) > 0 {
			c.byWorker[w] = append([]ObjectAnswer(nil), col...)
		}
	}
	c.ObjectNames = append([]string(nil), a.ObjectNames...)
	c.WorkerNames = append([]string(nil), a.WorkerNames...)
	c.LabelNames = append([]string(nil), a.LabelNames...)
	if a.dirtyObjects != nil {
		c.TrackDirty()
		for o := range a.dirtyObjects {
			c.dirtyObjects[o] = struct{}{}
		}
		for w := range a.dirtyWorkers {
			c.dirtyWorkers[w] = struct{}{}
		}
	}
	return c
}

// MaskWorker removes all answers of the given worker, returning the removed
// (object, label) pairs so they can be restored later with RestoreWorker.
// It is used by the worker-driven guidance to quarantine suspected faulty
// workers without discarding their input permanently (§5.3, "Handling faulty
// workers").
func (a *AnswerSet) MaskWorker(worker int) []ObjectAnswer {
	if worker < 0 || worker >= a.numWorkers || len(a.byWorker[worker]) == 0 {
		return nil
	}
	removed := a.byWorker[worker]
	a.byWorker[worker] = nil
	for _, oa := range removed {
		if i, found := a.objectPos(oa.Object, worker); found {
			a.byObject[oa.Object] = append(a.byObject[oa.Object][:i], a.byObject[oa.Object][i+1:]...)
		}
		a.markAnswerDirty(oa.Object, worker)
	}
	a.MarkWorkerDirty(worker)
	a.count -= len(removed)
	return removed
}

// RestoreWorker re-inserts answers previously removed by MaskWorker.
func (a *AnswerSet) RestoreWorker(worker int, answers []ObjectAnswer) {
	if worker < 0 || worker >= a.numWorkers {
		return
	}
	for _, oa := range answers {
		if oa.Object >= 0 && oa.Object < a.numObjects && oa.Label.Valid(a.numLabels) {
			// Errors are impossible here: indices and label were validated.
			_ = a.SetAnswer(oa.Object, worker, oa.Label)
		}
	}
}

// ObjectAnswer pairs an object index with the label a worker assigned to it.
type ObjectAnswer struct {
	Object int
	Label  Label
}

// Answer is one fully qualified crowd answer: worker answered object with
// label. It is the unit of live answer ingestion (Session.AddAnswers).
type Answer struct {
	Object int
	Worker int
	Label  Label
}

// Grow extends the answer set to cover at least numObjects objects and
// numWorkers workers, keeping every recorded answer. New rows and columns
// start empty. Growing is what makes live ingestion of answers for
// previously unseen objects or workers possible without rebuilding; the
// label alphabet is fixed at construction and cannot grow. Shrinking is not
// supported: dimensions smaller than the current ones return
// ErrDimensionMismatch.
func (a *AnswerSet) Grow(numObjects, numWorkers int) error {
	if numObjects < a.numObjects || numWorkers < a.numWorkers {
		return fmt.Errorf("%w: cannot shrink answer set from %d×%d to %d×%d",
			ErrDimensionMismatch, a.numObjects, a.numWorkers, numObjects, numWorkers)
	}
	if numObjects > a.numObjects {
		a.byObject = append(a.byObject, make([][]WorkerAnswer, numObjects-a.numObjects)...)
		if a.ObjectNames != nil {
			a.ObjectNames = append(a.ObjectNames, make([]string, numObjects-a.numObjects)...)
		}
		oldObjects := a.numObjects
		a.numObjects = numObjects
		for o := oldObjects; o < numObjects; o++ {
			a.MarkObjectDirty(o)
		}
	}
	if numWorkers > a.numWorkers {
		a.byWorker = append(a.byWorker, make([][]ObjectAnswer, numWorkers-a.numWorkers)...)
		if a.WorkerNames != nil {
			a.WorkerNames = append(a.WorkerNames, make([]string, numWorkers-a.numWorkers)...)
		}
		oldWorkers := a.numWorkers
		a.numWorkers = numWorkers
		for w := oldWorkers; w < numWorkers; w++ {
			a.MarkWorkerDirty(w)
		}
	}
	return nil
}

// String returns a compact description of the answer set.
func (a *AnswerSet) String() string {
	return fmt.Sprintf("AnswerSet(%d objects × %d workers, %d labels, %d answers)",
		a.numObjects, a.numWorkers, a.numLabels, a.count)
}
