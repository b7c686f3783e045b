package spamdetect

import (
	"slices"
	"sort"

	"crowdval/internal/model"
)

// Quarantine implements the faulty-worker handling of §5.3: answers of
// suspected faulty workers are removed from the answer set (masked) but kept
// aside, and are re-inserted as soon as the worker is no longer suspected.
// This avoids permanently excluding truthful workers that merely look faulty
// while only a few of their answers have been validated (Table 3).
type Quarantine struct {
	masked map[int][]model.ObjectAnswer
}

// NewQuarantine creates an empty quarantine.
func NewQuarantine() *Quarantine {
	return &Quarantine{masked: make(map[int][]model.ObjectAnswer)}
}

// MaskedWorkers returns the indices of currently quarantined workers in
// ascending order.
func (q *Quarantine) MaskedWorkers() []int {
	out := make([]int, 0, len(q.masked))
	for w := range q.masked {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Apply reconciles the quarantine with a detection result: answers of newly
// suspected workers are masked out of the answer set, and workers that are no
// longer suspected get their answers restored. It returns the workers that
// were newly masked and the ones that were restored.
func (q *Quarantine) Apply(answers *model.AnswerSet, detection Detection) (masked, restored []int) {
	suspected := make(map[int]bool)
	for _, w := range detection.FaultyWorkers() {
		suspected[w] = true
	}
	// Restore workers that are no longer suspected.
	for w := range q.masked {
		if !suspected[w] {
			answers.RestoreWorker(w, q.masked[w])
			delete(q.masked, w)
			restored = append(restored, w)
		}
	}
	// Mask newly suspected workers.
	for w := range suspected {
		if _, already := q.masked[w]; already {
			continue
		}
		removed := answers.MaskWorker(w)
		if len(removed) == 0 {
			// Nothing to quarantine (the worker has no remaining answers);
			// still record it so MaskedWorkers reflects the suspicion.
			removed = []model.ObjectAnswer{}
		}
		q.masked[w] = removed
		masked = append(masked, w)
	}
	sort.Ints(masked)
	sort.Ints(restored)
	return masked, restored
}

// Mask quarantines one worker directly: the worker's remaining answers are
// removed from the answer set and stashed. It is used when reconstructing a
// quarantine from a session snapshot; the periodic detection-driven
// reconciliation goes through Apply. Masking an already masked worker is a
// no-op.
func (q *Quarantine) Mask(answers *model.AnswerSet, worker int) {
	if _, already := q.masked[worker]; already {
		return
	}
	removed := answers.MaskWorker(worker)
	if removed == nil {
		removed = []model.ObjectAnswer{}
	}
	q.masked[worker] = removed
}

// Stash records a newly ingested answer of an already quarantined worker in
// the worker's stash, so the answer surfaces if the worker is later cleared.
// A stash is sorted by object with one answer per object: an answer for an
// object already stashed replaces it. It reports whether the worker is
// quarantined; a false return means the caller must insert the answer into
// the working answer set instead.
func (q *Quarantine) Stash(worker int, answer model.ObjectAnswer) bool {
	stash, ok := q.masked[worker]
	if !ok {
		return false
	}
	i := sort.Search(len(stash), func(i int) bool { return stash[i].Object >= answer.Object })
	if i < len(stash) && stash[i].Object == answer.Object {
		stash[i] = answer
		return true
	}
	q.masked[worker] = slices.Insert(stash, i, answer)
	return true
}

// Stashed returns the answers held for a quarantined worker, sorted by
// object, or nil for a worker that is not quarantined. Callers must not
// modify the slice.
func (q *Quarantine) Stashed(worker int) []model.ObjectAnswer { return q.masked[worker] }

// Undo reverts one Apply call given the masked/restored lists it returned:
// newly masked workers get their answers back, restored workers are masked
// again. It is used to roll back an iteration that failed after the
// quarantine was reconciled (e.g. a cancelled aggregation), keeping the
// session state consistent.
func (q *Quarantine) Undo(answers *model.AnswerSet, masked, restored []int) {
	for _, w := range masked {
		if stash, ok := q.masked[w]; ok {
			answers.RestoreWorker(w, stash)
			delete(q.masked, w)
		}
	}
	for _, w := range restored {
		q.Mask(answers, w)
	}
}
