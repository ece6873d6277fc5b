package sim

import "fmt"

// HeapQueue is the default event queue: a binary min-heap ordered by
// (tick, priority, provenance stamp, insertion sequence). All operations are
// O(log n).
type HeapQueue struct {
	stamper
	oneShots
	now  Tick
	seq  uint64
	heap []*Event
}

// NewHeapQueue returns an empty heap-backed event queue at tick 0.
func NewHeapQueue() *HeapQueue { return &HeapQueue{} }

// Now implements Queue.
func (q *HeapQueue) Now() Tick { return q.now }

// Len implements Queue.
func (q *HeapQueue) Len() int { return len(q.heap) }

// Empty implements Queue.
func (q *HeapQueue) Empty() bool { return len(q.heap) == 0 }

// Schedule implements Queue.
func (q *HeapQueue) Schedule(e *Event, when Tick) {
	if e.pos >= 0 {
		panic(fmt.Sprintf("sim: event %s scheduled twice%s", e.name, q.context()))
	}
	if when < q.now {
		panic(fmt.Sprintf("sim: event %s scheduled at %d before now %d%s", e.name, when, q.now, q.context()))
	}
	e.when = when
	e.seq = q.seq
	q.seq++
	q.stampFor(e, q.now)
	e.pos = len(q.heap)
	q.heap = append(q.heap, e)
	q.up(e.pos)
}

// Deschedule implements Queue.
func (q *HeapQueue) Deschedule(e *Event) {
	if e.pos < 0 {
		panic(fmt.Sprintf("sim: descheduling unscheduled event %s", e.name))
	}
	q.remove(e.pos)
	e.pos = -1
}

// Reschedule implements Queue.
func (q *HeapQueue) Reschedule(e *Event, when Tick) {
	if e.pos >= 0 {
		q.Deschedule(e)
	}
	q.Schedule(e, when)
}

// NextTick implements Queue.
func (q *HeapQueue) NextTick() Tick {
	if len(q.heap) == 0 {
		panic("sim: NextTick on empty queue")
	}
	return q.heap[0].when
}

// Peek implements Queue.
func (q *HeapQueue) Peek() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// ServiceOne implements Queue.
func (q *HeapQueue) ServiceOne() bool {
	if len(q.heap) == 0 {
		return false
	}
	e := q.heap[0]
	q.beginDispatch(e)
	q.remove(0)
	e.pos = -1
	q.now = e.when
	e.fire()
	q.put(e)
	return true
}

func (q *HeapQueue) clock() *Tick { return &q.now }

func (q *HeapQueue) drain(s *System, limit Tick, budget uint64) ExitStatus {
	for {
		if q.Empty() {
			return ExitQueueEmpty
		}
		if q.NextTick() > limit {
			return ExitLimit
		}
		if s.serviced >= budget {
			return ExitEventLimit
		}
		s.TraceCall(s.fnDispatch)
		q.ServiceOne()
		s.serviced++
	}
}

func (q *HeapQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].before(q.heap[parent]) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *HeapQueue) down(i int) {
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

func (q *HeapQueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].pos = i
	q.heap[j].pos = j
}

func (q *HeapQueue) remove(i int) {
	n := len(q.heap) - 1
	q.swap(i, n)
	q.heap[n] = nil
	q.heap = q.heap[:n]
	if i < n {
		q.up(i)
		q.down(i)
	}
}
