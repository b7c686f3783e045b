package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crowdval/internal/model"
)

// denseAnswers builds an answer set in which every worker answers every
// object with label 0.
func denseAnswers(t *testing.T, objects, workers int) *model.AnswerSet {
	t.Helper()
	a := model.MustNewAnswerSet(objects, workers, 2)
	for o := 0; o < objects; o++ {
		for w := 0; w < workers; w++ {
			if err := a.SetAnswer(o, w, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

// largestBlock returns the number of objects in p's largest block.
func largestBlock(p *Partitioning) int {
	largest := 0
	for _, b := range p.Blocks {
		largest = max(largest, len(b.Objects))
	}
	return largest
}

func TestPartitionNil(t *testing.T) {
	if _, err := Partition(nil, Options{}); err == nil {
		t.Fatal("nil answer set accepted")
	}
}

func TestPartitionCoversAllObjects(t *testing.T) {
	a := denseAnswers(t, 17, 4)
	p, err := Partition(a, Options{MaxObjectsPerBlock: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !p.CoversAllObjects() {
		t.Fatal("partitioning does not cover all objects exactly once")
	}
	if largest := largestBlock(p); largest > 5 {
		t.Fatalf("largest block = %d, want <= 5", largest)
	}
	if p.NumBlocks() < 4 {
		t.Fatalf("blocks = %d, want >= 4 for 17 objects with max 5", p.NumBlocks())
	}
}

func TestPartitionZeroMaxObjectsClampedToOne(t *testing.T) {
	a := denseAnswers(t, 3, 2)
	p, err := Partition(a, Options{MaxObjectsPerBlock: 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 3 || largestBlock(p) != 1 {
		t.Fatalf("blocks = %d largest = %d, want 3 blocks of 1", p.NumBlocks(), largestBlock(p))
	}
}

func TestPartitionIsolatedObjects(t *testing.T) {
	// Objects 0 and 1 share worker 0; object 2 has no answers at all.
	a := model.MustNewAnswerSet(3, 2, 2)
	if err := a.SetAnswer(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.SetAnswer(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	p, err := Partition(a, Options{MaxObjectsPerBlock: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !p.CoversAllObjects() {
		t.Fatal("isolated object missing from partitioning")
	}
	if p.NumBlocks() != 2 {
		t.Fatalf("blocks = %d, want 2 (connected pair + isolated object)", p.NumBlocks())
	}
}

func TestPartitionGroupsConnectedObjects(t *testing.T) {
	// Two disjoint worker communities answering disjoint object sets.
	a := model.MustNewAnswerSet(6, 4, 2)
	for o := 0; o < 3; o++ {
		for w := 0; w < 2; w++ {
			if err := a.SetAnswer(o, w, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for o := 3; o < 6; o++ {
		for w := 2; w < 4; w++ {
			if err := a.SetAnswer(o, w, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := Partition(a, Options{MaxObjectsPerBlock: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 2 {
		t.Fatalf("blocks = %d, want 2", p.NumBlocks())
	}
	for i, b := range p.Blocks {
		if len(b.Objects) != 3 || len(b.Workers) != 2 {
			t.Fatalf("block %d = %+v", i, b)
		}
	}
}

// Property: for random sparse answer sets, the partitioning always covers all
// objects exactly once and never exceeds the block size bound.
func TestPartitionInvariantsProperty(t *testing.T) {
	f := func(seed int64, maxBlock uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		k := 2 + rng.Intn(10)
		a := model.MustNewAnswerSet(n, k, 2)
		for o := 0; o < n; o++ {
			answers := rng.Intn(k)
			for j := 0; j < answers; j++ {
				if err := a.SetAnswer(o, rng.Intn(k), model.Label(rng.Intn(2))); err != nil {
					return false
				}
			}
		}
		limit := int(maxBlock%20) + 1
		p, err := Partition(a, Options{MaxObjectsPerBlock: limit})
		if err != nil {
			return false
		}
		return p.CoversAllObjects() && largestBlock(p) <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
