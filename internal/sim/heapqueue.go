package sim

import "fmt"

// HeapQueue is the default event queue: a deque of the pending events,
// sorted earliest first by (tick, priority, insertion sequence). That order
// is strict and total, so the events fire in the order the binary heap this
// type used to be fired them; the name stayed
// with the type because the benchmark module compiles against it. Popping
// the earliest event is O(1), and so is an insertion at either end, which
// is where nearly all of a guest's insertions land (DESIGN.md §27); an
// insertion or removal in between binary-searches its place and shifts the
// shorter side.
type HeapQueue struct {
	oneShots
	now Tick
	seq uint64
	// ring holds the n pending events in order, the k-th at
	// ring[(head+k)&(len(ring)-1)]; its length is zero or a power of two,
	// and every slot not holding a pending event is nil.
	ring    []*Event
	head, n int
}

// NewHeapQueue returns an empty event queue at tick 0.
func NewHeapQueue() *HeapQueue { return &HeapQueue{} }

// Now implements Queue.
func (q *HeapQueue) Now() Tick { return q.now }

// Len implements Queue.
func (q *HeapQueue) Len() int { return q.n }

// Empty implements Queue.
func (q *HeapQueue) Empty() bool { return q.n == 0 }

// Schedule implements Queue.
func (q *HeapQueue) Schedule(e *Event, when Tick) {
	if e.pos >= 0 {
		panic(fmt.Sprintf("sim: event %s scheduled twice", e.name))
	}
	if when < q.now {
		panic(fmt.Sprintf("sim: event %s scheduled at %d before now %d", e.name, when, q.now))
	}
	e.when = when
	e.seq = q.seq
	q.seq++
	e.pos = 0
	if q.n == len(q.ring) {
		q.grow()
	}
	mask := len(q.ring) - 1
	switch {
	case q.n == 0 || !e.before(q.ring[(q.head+q.n-1)&mask]):
		q.ring[(q.head+q.n)&mask] = e
	case e.before(q.ring[q.head]):
		q.head = (q.head - 1) & mask
		q.ring[q.head] = e
	default:
		q.insert(q.search(e), e)
		return
	}
	q.n++
}

// Deschedule implements Queue.
func (q *HeapQueue) Deschedule(e *Event) {
	if e.pos < 0 {
		panic(fmt.Sprintf("sim: descheduling unscheduled event %s", e.name))
	}
	k := q.search(e)
	if k == q.n || q.at(k) != e {
		panic(fmt.Sprintf("sim: event %s not found in its queue", e.name))
	}
	q.remove(k)
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
	if q.n == 0 {
		panic("sim: NextTick on empty queue")
	}
	return q.ring[q.head].when
}

// Peek implements Queue.
func (q *HeapQueue) Peek() *Event {
	if q.n == 0 {
		return nil
	}
	return q.ring[q.head]
}

// ServiceOne implements Queue.
func (q *HeapQueue) ServiceOne() bool {
	if q.n == 0 {
		return false
	}
	e := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	e.pos = -1
	q.now = e.when
	e.fire()
	q.put(e)
	return true
}

// at returns the k-th pending event.
func (q *HeapQueue) at(k int) *Event { return q.ring[(q.head+k)&(len(q.ring)-1)] }

// search returns the number of pending events that come before e: where e
// belongs if it is not queued, and e's own place if it is.
func (q *HeapQueue) search(e *Event) int {
	lo, hi := 0, q.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q.at(m).before(e) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert places e k-th, 0 < k < n, moving the events on the shorter side
// of that place one slot outwards. The ring has a free slot.
func (q *HeapQueue) insert(k int, e *Event) {
	mask := len(q.ring) - 1
	if k < q.n-k {
		q.earlier(q.head, k)
		q.head = (q.head - 1) & mask
	} else {
		q.later((q.head+k)&mask, q.n-k)
	}
	q.ring[(q.head+k)&mask] = e
	q.n++
}

// remove takes out the k-th pending event, closing the gap from the shorter
// side.
func (q *HeapQueue) remove(k int) {
	mask := len(q.ring) - 1
	if k < q.n-1-k {
		q.later(q.head, k)
		q.ring[q.head] = nil
		q.head = (q.head + 1) & mask
	} else {
		q.earlier((q.head+k+1)&mask, q.n-1-k)
		q.ring[(q.head+q.n-1)&mask] = nil
	}
	q.n--
}

// later moves the m events in the ring from slot p on one slot later, and
// earlier one slot earlier, each in at most three block moves: the part
// before the ring's end, the event that crosses it, and the part after.
func (q *HeapQueue) later(p, m int) {
	r := q.ring
	if p+m < len(r) {
		copy(r[p+1:], r[p:p+m])
		return
	}
	w := p + m - len(r) // events at the start of the ring
	copy(r[1:], r[:w])
	r[0] = r[len(r)-1]
	copy(r[p+1:], r[p:len(r)-1])
}

func (q *HeapQueue) earlier(p, m int) {
	r := q.ring
	if m == 0 {
		return
	}
	if p > 0 && p+m <= len(r) {
		copy(r[p-1:], r[p:p+m])
		return
	}
	if p == 0 {
		p = len(r)
	}
	w := p + m - len(r) // events at the start of the ring
	copy(r[p-1:], r[p:])
	r[len(r)-1] = r[0]
	copy(r, r[1:w])
}

// grow doubles the ring, unwrapping the pending events to its start. It
// starts at one slot, so that a queue allocates what the depth of its
// traffic needs and no more, as the heap's append did.
func (q *HeapQueue) grow() {
	ring := make([]*Event, max(2*len(q.ring), 1))
	k := copy(ring, q.ring[q.head:])
	copy(ring[k:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}
