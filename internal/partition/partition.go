package partition

import (
	"fmt"
	"sort"

	"crowdval/internal/model"
)

// Block is one partition cell: a set of object indices and the workers that
// answered at least one of them.
type Block struct {
	Objects []int
	Workers []int
}

// Partitioning is the result of partitioning an answer set.
type Partitioning struct {
	Blocks []Block
	// answers is the original answer set the partitioning refers to.
	answers *model.AnswerSet
}

// Options control the partitioner.
type Options struct {
	// MaxObjectsPerBlock bounds the number of objects per block. Values
	// below 1 are treated as 1.
	MaxObjectsPerBlock int
}

// Partition splits the objects of the answer set into blocks of at most
// opts.MaxObjectsPerBlock objects. Objects connected through shared workers
// are greedily grouped together (breadth-first traversal of the bipartite
// graph); isolated objects form their own blocks at the end.
func Partition(answers *model.AnswerSet, opts Options) (*Partitioning, error) {
	if answers == nil {
		return nil, fmt.Errorf("partition: nil answer set")
	}
	maxObjects := opts.MaxObjectsPerBlock
	if maxObjects < 1 {
		maxObjects = 1
	}
	n := answers.NumObjects()

	// Adjacency: object -> workers, worker -> objects.
	objectWorkers := make([][]int, n)
	workerObjects := make([][]int, answers.NumWorkers())
	for o := 0; o < n; o++ {
		for _, wa := range answers.ObjectView(o) {
			objectWorkers[o] = append(objectWorkers[o], wa.Worker)
			workerObjects[wa.Worker] = append(workerObjects[wa.Worker], o)
		}
	}

	visited := make([]bool, n)
	var blocks []Block

	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		// Grow a block from this seed using BFS over shared workers.
		var objects []int
		queue := []int{start}
		visited[start] = true
		for len(queue) > 0 && len(objects) < maxObjects {
			o := queue[0]
			queue = queue[1:]
			objects = append(objects, o)
			for _, w := range objectWorkers[o] {
				for _, next := range workerObjects[w] {
					if !visited[next] && len(objects)+len(queue) < maxObjects {
						visited[next] = true
						queue = append(queue, next)
					}
				}
			}
		}
		// Whatever is left in the queue still belongs to this block (it was
		// already marked visited and counted against maxObjects).
		objects = append(objects, queue...)
		sort.Ints(objects)
		blocks = append(blocks, Block{
			Objects: objects,
			Workers: blockWorkers(objects, objectWorkers),
		})
	}

	return &Partitioning{Blocks: blocks, answers: answers}, nil
}

func blockWorkers(objects []int, objectWorkers [][]int) []int {
	seen := make(map[int]bool)
	for _, o := range objects {
		for _, w := range objectWorkers[o] {
			seen[w] = true
		}
	}
	workers := make([]int, 0, len(seen))
	for w := range seen {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	return workers
}

// NumBlocks returns the number of blocks.
func (p *Partitioning) NumBlocks() int { return len(p.Blocks) }

// CoversAllObjects reports whether every object of the answer set appears in
// exactly one block.
func (p *Partitioning) CoversAllObjects() bool {
	if p.answers == nil {
		return false
	}
	seen := make(map[int]int)
	for _, b := range p.Blocks {
		for _, o := range b.Objects {
			seen[o]++
		}
	}
	if len(seen) != p.answers.NumObjects() {
		return false
	}
	for _, count := range seen {
		if count != 1 {
			return false
		}
	}
	return true
}
