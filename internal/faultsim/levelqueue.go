package faultsim

// levelQueue pops gates in topological-level order. Because fault effects
// only travel forward through the DAG, every push lands at a level at or
// beyond the current pop level, so a bucket per level replaces a heap.
type levelQueue struct {
	level   []int32   // per gate; read-only, shared with the engine's forks
	buckets [][]int32 // by level
	touched []int32   // levels with leftover entries (for reset)
	cur     int
	count   int
}

func newLevelQueue(level []int32) *levelQueue {
	maxLvl := int32(0)
	for _, l := range level {
		maxLvl = max(maxLvl, l)
	}
	return &levelQueue{level: level, buckets: make([][]int32, maxLvl+1)}
}

// reset clears any entries left by an early-exited previous traversal.
func (q *levelQueue) reset() {
	for _, l := range q.touched {
		q.buckets[l] = q.buckets[l][:0]
	}
	q.touched = q.touched[:0]
	q.cur = 0
	q.count = 0
}

func (q *levelQueue) push(id int32) {
	l := q.level[id]
	if len(q.buckets[l]) == 0 {
		q.touched = append(q.touched, l)
	}
	q.buckets[l] = append(q.buckets[l], id)
	if int(l) < q.cur {
		q.cur = int(l)
	}
	q.count++
}

func (q *levelQueue) empty() bool { return q.count == 0 }

func (q *levelQueue) popMin() int32 {
	for len(q.buckets[q.cur]) == 0 {
		q.cur++
	}
	b := q.buckets[q.cur]
	id := b[len(b)-1]
	q.buckets[q.cur] = b[:len(b)-1]
	q.count--
	return id
}
