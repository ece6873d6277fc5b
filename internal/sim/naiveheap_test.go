package sim

import "fmt"

// naiveHeap is the binary min-heap that HeapQueue was before it became a
// sorted deque (DESIGN.md §27), kept as it was as the reference the deque is
// held to: TestQueueEquivalence, the backend tables of queue_test.go and
// FuzzQueueEquivalence run both on the same traffic and require the same
// fire order. It is ordered by (tick, priority,
// insertion sequence). All operations are O(log n).
type naiveHeap struct {
	oneShots
	now  Tick
	seq  uint64
	heap []*Event
}

// newNaiveHeap returns an empty heap-backed event queue at tick 0.
func newNaiveHeap() *naiveHeap { return &naiveHeap{} }

// Now implements Queue.
func (q *naiveHeap) Now() Tick { return q.now }

// Len implements Queue.
func (q *naiveHeap) Len() int { return len(q.heap) }

// Empty implements Queue.
func (q *naiveHeap) Empty() bool { return len(q.heap) == 0 }

// Schedule implements Queue.
func (q *naiveHeap) Schedule(e *Event, when Tick) {
	if e.pos >= 0 {
		panic(fmt.Sprintf("sim: event %s scheduled twice", e.name))
	}
	if when < q.now {
		panic(fmt.Sprintf("sim: event %s scheduled at %d before now %d", e.name, when, q.now))
	}
	e.when = when
	e.seq = q.seq
	q.seq++
	e.pos = len(q.heap)
	q.heap = append(q.heap, e)
	q.up(e.pos)
}

// Deschedule implements Queue.
func (q *naiveHeap) Deschedule(e *Event) {
	if e.pos < 0 {
		panic(fmt.Sprintf("sim: descheduling unscheduled event %s", e.name))
	}
	q.remove(e.pos)
	e.pos = -1
}

// Reschedule implements Queue.
func (q *naiveHeap) Reschedule(e *Event, when Tick) {
	if e.pos >= 0 {
		q.Deschedule(e)
	}
	q.Schedule(e, when)
}

// NextTick implements Queue.
func (q *naiveHeap) NextTick() Tick {
	if len(q.heap) == 0 {
		panic("sim: NextTick on empty queue")
	}
	return q.heap[0].when
}

// Peek implements Queue.
func (q *naiveHeap) Peek() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// ServiceOne implements Queue.
func (q *naiveHeap) ServiceOne() bool {
	if len(q.heap) == 0 {
		return false
	}
	e := q.heap[0]
	q.remove(0)
	e.pos = -1
	q.now = e.when
	e.fire()
	q.put(e)
	return true
}

func (q *naiveHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].before(q.heap[parent]) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *naiveHeap) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.heap[l].before(q.heap[small]) {
			small = l
		}
		if r < n && q.heap[r].before(q.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		q.swap(i, small)
		i = small
	}
}

func (q *naiveHeap) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].pos = i
	q.heap[j].pos = j
}

func (q *naiveHeap) remove(i int) {
	n := len(q.heap) - 1
	q.swap(i, n)
	q.heap[n] = nil
	q.heap = q.heap[:n]
	if i < n {
		q.up(i)
		q.down(i)
	}
}
