package sim

import "fmt"

const overflowPos = 1 << 30

// CalendarQueue is a second event-queue backend: a sliding ring of
// fixed-width time buckets with an overflow area for far-future events
// (a ladder/calendar queue), firing events in HeapQueue's order. No System
// runs on it: it lost to the deque at the depths guests run at (DESIGN.md
// §15), and remains only because bench/ times it.
type CalendarQueue struct {
	oneShots
	now     Tick
	seq     uint64
	width   Tick
	base    Tick // start of the window covered by buckets[cur]
	cur     int
	buckets [][]*Event
	over    []*Event
	size    int
}

// NewCalendarQueue returns a calendar queue with nb buckets of the given
// tick width. Typical values: 256 buckets of 1000 ticks (one guest cycle).
func NewCalendarQueue(nb int, width Tick) *CalendarQueue {
	if nb < 2 || width == 0 {
		panic("sim: calendar queue needs >=2 buckets and nonzero width")
	}
	return &CalendarQueue{width: width, buckets: make([][]*Event, nb)}
}

// Now implements Queue.
func (q *CalendarQueue) Now() Tick { return q.now }

// Len implements Queue.
func (q *CalendarQueue) Len() int { return q.size }

// Empty implements Queue.
func (q *CalendarQueue) Empty() bool { return q.size == 0 }

func (q *CalendarQueue) horizon() Tick {
	return q.base + Tick(len(q.buckets))*q.width
}

// Schedule implements Queue.
func (q *CalendarQueue) Schedule(e *Event, when Tick) {
	if e.pos >= 0 {
		panic(fmt.Sprintf("sim: event %s scheduled twice", e.name))
	}
	if when < q.now {
		panic(fmt.Sprintf("sim: event %s scheduled at %d before now %d", e.name, when, q.now))
	}
	e.when = when
	e.seq = q.seq
	q.seq++
	q.size++
	if when >= q.horizon() {
		e.pos = overflowPos
		q.over = append(q.over, e)
		return
	}
	// A NextTick-driven slide or jump can move the window start past Now()
	// without firing anything, so a legal schedule (when >= q.now) may still
	// land below q.base; (when-q.base)/q.width would underflow into a garbage
	// bucket. Clamp such events into the current bucket: peek min-scans it,
	// so an earlier-than-window event still fires first.
	idx := q.cur
	if when >= q.base {
		idx = (q.cur + int((when-q.base)/q.width)) % len(q.buckets)
	}
	e.pos = idx
	q.buckets[idx] = append(q.buckets[idx], e)
}

// Deschedule implements Queue.
func (q *CalendarQueue) Deschedule(e *Event) {
	if e.pos < 0 {
		panic(fmt.Sprintf("sim: descheduling unscheduled event %s", e.name))
	}
	var list *[]*Event
	if e.pos == overflowPos {
		list = &q.over
	} else {
		list = &q.buckets[e.pos]
	}
	for i, ev := range *list {
		if ev == e {
			last := len(*list) - 1
			(*list)[i] = (*list)[last]
			(*list)[last] = nil
			*list = (*list)[:last]
			e.pos = -1
			q.size--
			return
		}
	}
	panic(fmt.Sprintf("sim: event %s not found in its bucket", e.name))
}

// Reschedule implements Queue.
func (q *CalendarQueue) Reschedule(e *Event, when Tick) {
	if e.pos >= 0 {
		q.Deschedule(e)
	}
	q.Schedule(e, when)
}

// NextTick implements Queue.
func (q *CalendarQueue) NextTick() Tick {
	e := q.peek()
	if e == nil {
		panic("sim: NextTick on empty queue")
	}
	return e.when
}

// Peek implements Queue.
func (q *CalendarQueue) Peek() *Event { return q.peek() }

// ServiceOne implements Queue.
func (q *CalendarQueue) ServiceOne() bool {
	e := q.peek()
	if e == nil {
		return false
	}
	if e.when < q.now {
		// Guards Now() monotonicity against filing bugs: peek's window
		// slide/jump rewrites q.base/q.cur without consulting q.now, so a
		// mis-bucketed event would surface here as time running backwards.
		panic(fmt.Sprintf("sim: calendar queue time ran backwards: event %s at %d, now %d",
			e.name, e.when, q.now))
	}
	q.Deschedule(e)
	q.now = e.when
	e.fire()
	q.put(e)
	return true
}

// peek advances buckets as needed and returns the earliest event without
// removing it, or nil if the queue is empty.
func (q *CalendarQueue) peek() *Event {
	if q.size == 0 {
		return nil
	}
	for {
		if b := q.buckets[q.cur]; len(b) > 0 {
			min := b[0]
			for _, ev := range b[1:] {
				if ev.before(min) {
					min = ev
				}
			}
			return min
		}
		if q.size == len(q.over) {
			// Ring is empty: jump the window to the earliest overflow event.
			min := q.over[0]
			for _, ev := range q.over[1:] {
				if ev.before(min) {
					min = ev
				}
			}
			q.base = (min.when / q.width) * q.width
			q.cur = 0
			q.redistribute()
			continue
		}
		// Slide the window forward by one bucket; the vacated bucket now
		// covers the newly opened far window, so pull matching overflow in.
		q.base += q.width
		far := q.cur // vacated bucket becomes the farthest window
		q.cur = (q.cur + 1) % len(q.buckets)
		q.pullOverflow(far, q.horizon()-q.width, q.horizon())
	}
}

// pullOverflow moves overflow events with lo <= when < hi into bucket idx.
func (q *CalendarQueue) pullOverflow(idx int, lo, hi Tick) {
	kept := q.over[:0]
	for _, ev := range q.over {
		if ev.when >= lo && ev.when < hi {
			ev.pos = idx
			q.buckets[idx] = append(q.buckets[idx], ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(q.over); i++ {
		q.over[i] = nil
	}
	q.over = kept
}

// checkInvariant validates the queue's structural invariants; the tests and
// the equivalence fuzz target call it after every mutation. The window base
// may legitimately sit ahead of Now() — a NextTick-driven slide or jump moves
// q.base without firing anything — so the monotonicity invariant takes its
// fixed form: whenever q.base > q.now, any ring event below the window start
// must be clamped into the current bucket (see Schedule), which is what keeps
// the service order correct.
func (q *CalendarQueue) checkInvariant() error {
	n := len(q.over)
	for _, ev := range q.over {
		if ev.pos != overflowPos {
			return fmt.Errorf("calendar: overflow event %s has pos %d", ev.name, ev.pos)
		}
		if ev.when < q.horizon() {
			return fmt.Errorf("calendar: overflow event %s at %d is below the horizon %d", ev.name, ev.when, q.horizon())
		}
	}
	for i, b := range q.buckets {
		n += len(b)
		for _, ev := range b {
			if ev.pos != i {
				return fmt.Errorf("calendar: event %s in bucket %d has pos %d", ev.name, i, ev.pos)
			}
			if ev.when >= q.horizon() {
				return fmt.Errorf("calendar: event %s at %d in bucket %d is past the horizon %d", ev.name, ev.when, i, q.horizon())
			}
			if ev.when >= q.base {
				want := (q.cur + int((ev.when-q.base)/q.width)) % len(q.buckets)
				if i != want {
					return fmt.Errorf("calendar: event %s at %d filed in bucket %d, want %d (base %d width %d cur %d)",
						ev.name, ev.when, i, want, q.base, q.width, q.cur)
				}
			} else if i != q.cur {
				return fmt.Errorf("calendar: event %s at %d is below the window start %d but filed in bucket %d, not the current bucket %d",
					ev.name, ev.when, q.base, i, q.cur)
			}
		}
	}
	if n != q.size {
		return fmt.Errorf("calendar: size %d but %d events filed", q.size, n)
	}
	return nil
}

// redistribute re-files every overflow event that now falls inside the window.
func (q *CalendarQueue) redistribute() {
	kept := q.over[:0]
	for _, ev := range q.over {
		if ev.when < q.horizon() {
			idx := (q.cur + int((ev.when-q.base)/q.width)) % len(q.buckets)
			ev.pos = idx
			q.buckets[idx] = append(q.buckets[idx], ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(q.over); i++ {
		q.over[i] = nil
	}
	q.over = kept
}
