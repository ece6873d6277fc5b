package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// streamEvents is the number of persistent events a stream draws from, one
// per value of an index byte, so that a stream can queue far more than 64
// of them at once.
const streamEvents = 256

// queueStream replays one fuzz-generated op stream against a queue. Each
// fired event consumes one follow-on op from the same stream, so schedules,
// deschedules, and reschedules are also issued from inside event callbacks —
// the access pattern the CPU models generate.
type queueStream struct {
	q      Queue
	data   []byte
	pos    int
	events []*Event
	posted int // one-shots posted so far; the next one's id is 1000+posted
	log    []firedRec
	check  func() error // structural invariant, or nil
	err    error
	depth  int // the most events queued at once
}

type firedRec struct {
	id int
	at Tick
}

func (s *queueStream) next() (byte, bool) {
	if s.pos >= len(s.data) {
		return 0, false
	}
	b := s.data[s.pos]
	s.pos++
	return b, true
}

// perform runs one non-servicing op (ops 0-5). It is called both from the
// main loop and from inside fire callbacks.
func (s *queueStream) perform(op byte) {
	switch op % 6 {
	case 0, 1: // schedule near: delta in [0, 255]
		i, ok := s.next()
		d, ok2 := s.next()
		if !ok || !ok2 {
			return
		}
		e := s.events[int(i)%len(s.events)]
		if !e.Scheduled() {
			s.q.Schedule(e, s.q.Now()+Tick(d))
		}
	case 2: // deschedule
		i, ok := s.next()
		if !ok {
			return
		}
		e := s.events[int(i)%len(s.events)]
		if e.Scheduled() {
			s.q.Deschedule(e)
		}
	case 3: // reschedule (schedules if currently unscheduled)
		i, ok := s.next()
		d, ok2 := s.next()
		if !ok || !ok2 {
			return
		}
		s.q.Reschedule(s.events[int(i)%len(s.events)], s.q.Now()+Tick(d)*3)
	case 4: // schedule far: up to ~458k ticks ahead, forcing overflow + jumps
		i, ok := s.next()
		hi, ok2 := s.next()
		lo, ok3 := s.next()
		if !ok || !ok2 || !ok3 {
			return
		}
		e := s.events[int(i)%len(s.events)]
		if !e.Scheduled() {
			d := Tick(hi)<<8 | Tick(lo)
			s.q.Schedule(e, s.q.Now()+d*7)
		}
	case 5: // peek without firing: this is what moves the window past Now()
		if !s.q.Empty() {
			_ = s.q.NextTick()
		}
	}
	s.after()
}

// after notes the queue's depth and checks its invariant after a step.
func (s *queueStream) after() {
	s.depth = max(s.depth, s.q.Len())
	if s.check != nil && s.err == nil {
		s.err = s.check()
	}
}

// oneShot posts a recycled event the way System.OneShot does: drawn from the
// queue's own free list, returned to it by ServiceOne. Posted from the main
// loop and from inside callbacks (where the firing event must not be the one
// handed out), so both backends are compared with recycling in the mix.
func (s *queueStream) oneShot() {
	d, ok := s.next()
	if !ok {
		return
	}
	id := 1000 + s.posted
	s.posted++
	free := s.q.(interface {
		get(name string, fn FuncID, fire func()) *Event
	})
	s.q.Schedule(free.get("o", 0, func() { s.fired(id) }), s.q.Now()+Tick(d))
	s.after()
}

// fired is every event's callback: log, then one follow-on op.
func (s *queueStream) fired(id int) {
	s.log = append(s.log, firedRec{id, s.q.Now()})
	if op, ok := s.next(); ok {
		if op%8 == 7 {
			s.oneShot()
		} else {
			s.perform(op)
		}
	}
}

// run replays the whole stream, then drains the queue. The events' priorities
// cycle through five values, so that same-tick events are ordered by
// priority as well as by insertion.
func (s *queueStream) run() {
	for i := range s.events {
		id := i
		s.events[i] = NewEventPrio("f", 0, i%5-2, func() { s.fired(id) })
	}
	for {
		op, ok := s.next()
		if !ok {
			break
		}
		if op%8 < 6 {
			s.perform(op)
		} else if op%8 == 7 {
			s.oneShot()
		} else {
			s.q.ServiceOne()
			s.after()
		}
	}
	for n := 0; n < 1<<16 && s.q.ServiceOne(); n++ {
		s.after()
	}
}

func replay(q Queue, data []byte, check func() error) *queueStream {
	s := &queueStream{q: q, data: data, events: make([]*Event, streamEvents), check: check}
	s.run()
	return s
}

// deepStream returns a stream that first schedules n distinct events, then
// continues with random ops (services, deschedules and reschedules, from
// the main loop and from the callbacks of the events it fires), so that
// the queue holds n or more events while it is mixed.
func deepStream(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, 0, byte(i), byte(rng.Intn(256)))
	}
	tail := make([]byte, 8*n)
	rng.Read(tail)
	return append(b, tail...)
}

// checkDeque is the deque's structural invariant: the pending events are
// sorted by before, each is marked scheduled and is found by its own key
// (where Deschedule looks for it), and every other slot of the ring is nil.
func checkDeque(q *HeapQueue) error {
	if len(q.ring)&(len(q.ring)-1) != 0 || q.n > len(q.ring) {
		return fmt.Errorf("deque: %d events in a ring of %d slots", q.n, len(q.ring))
	}
	for k := 0; k < len(q.ring); k++ {
		e := q.at(k)
		switch {
		case k >= q.n:
			if e != nil {
				return fmt.Errorf("deque: free slot %d holds %s", k, e.name)
			}
		case e == nil || e.pos < 0:
			return fmt.Errorf("deque: slot %d of %d holds no scheduled event", k, q.n)
		case k > 0 && !q.at(k-1).before(e):
			return fmt.Errorf("deque: %v at %d does not come before %v at %d", q.at(k-1), k-1, e, k)
		case q.search(e) != k:
			return fmt.Errorf("deque: %v at %d is searched for at %d", e, k, q.search(e))
		}
	}
	return nil
}

// FuzzQueueEquivalence drives the deque (HeapQueue), naiveHeap (the binary
// heap it replaced) and CalendarQueue with the same schedule/deschedule/
// reschedule/peek stream and asserts an identical fire order, plus the
// deque's and the calendar queue's structural invariants at the end.
// The calendar's geometry (8 buckets x 16 ticks) is small so near-future
// schedules slide the window and far ones overflow and jump it.
func FuzzQueueEquivalence(f *testing.F) {
	// Window-jump regression (TestCalendarScheduleAfterWindowJump as a
	// stream): far schedule, NextTick jump, schedule at Now(), drain.
	f.Add([]byte{
		4, 0, 0xff, 0xff, // schedule e0 ~458k ticks out (overflow)
		5,       // NextTick: empty ring, window jumps past Now()
		0, 1, 0, // schedule e1 at Now()+0
		6, 6, // service both
	})
	// Window-slide regression: near schedule a few buckets out, NextTick
	// slides base past Now(), then schedule below the new base.
	f.Add([]byte{
		0, 0, 120, // schedule e0 at 120 (bucket 7 of 8x16)
		5,       // NextTick slides the window to t=112
		0, 1, 2, // schedule e1 at 2 < base
		6, 6,
	})
	// Mixed stream with reschedules and callback-driven follow-ons.
	f.Add([]byte{
		0, 0, 50, 1, 1, 60, 3, 0, 10, 6, 2, 1, 4, 2, 1, 100, 6, 5, 0, 3, 0, 6, 6,
	})
	// One-shots: posted from the main loop, chained from inside a one-shot's
	// own callback at the same tick, and interleaved with a persistent event.
	f.Add([]byte{
		7, 3, 7, 3, 0, 0, 3, // two one-shots and e0, all at tick 3
		6, 7, 0, // service the first; its callback posts another at Now()+0
		6, 7, 5, 6, 6, 6, 6,
	})
	// Deterministic random streams stand in for the retired
	// TestQueueEquivalenceDynamic seeds.
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 8; k++ {
		buf := make([]byte, 96+32*k)
		rng.Read(buf)
		f.Add(buf)
	}
	// Queues deeper than 64 events.
	f.Add(deepStream(1, 100))
	f.Add(deepStream(2, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := replay(newNaiveHeap(), data, nil)
		d := replay(NewHeapQueue(), data, nil)
		c := replay(NewCalendarQueue(8, 16), data, nil)
		if err := checkDeque(d.q.(*HeapQueue)); err != nil {
			t.Fatalf("deque invariant: %v", err)
		}
		if err := c.q.(*CalendarQueue).checkInvariant(); err != nil {
			t.Fatalf("calendar invariant: %v", err)
		}
		for _, o := range []struct {
			name string
			s    *queueStream
		}{{"deque", d}, {"calendar", c}} {
			if len(o.s.log) != len(h.log) {
				t.Fatalf("naiveHeap fired %d events, %s %d", len(h.log), o.name, len(o.s.log))
			}
			for i := range h.log {
				if o.s.log[i] != h.log[i] {
					t.Fatalf("divergence at %d: naiveHeap %+v, %s %+v", i, h.log[i], o.name, o.s.log[i])
				}
			}
		}
	})
}

// TestFuzzInvariantChecked replays the regression seeds and two deep streams
// with the per-step invariant checks of the calendar queue and the deque
// enabled (the fuzz body checks only at the end to keep the fuzzing loop
// fast), and pins that the deep streams do queue more than 64 events.
func TestFuzzInvariantChecked(t *testing.T) {
	seeds := [][]byte{
		{4, 0, 0xff, 0xff, 5, 0, 1, 0, 6, 6},
		{0, 0, 120, 5, 0, 1, 2, 6, 6},
		{0, 0, 50, 1, 1, 60, 3, 0, 10, 6, 2, 1, 4, 2, 1, 100, 6, 5, 0, 3, 0, 6, 6},
		{7, 3, 7, 3, 0, 0, 3, 6, 7, 0, 6, 7, 5, 6, 6, 6, 6},
	}
	deep := [][]byte{deepStream(1, 100), deepStream(2, 200)}
	for i, data := range append(seeds, deep...) {
		c := NewCalendarQueue(8, 16)
		if s := replay(c, data, c.checkInvariant); s.err != nil {
			t.Errorf("seed %d: calendar invariant violated: %v", i, s.err)
		}
		d := NewHeapQueue()
		s := replay(d, data, func() error { return checkDeque(d) })
		if s.err != nil {
			t.Errorf("seed %d: deque invariant violated: %v", i, s.err)
		}
		if i >= len(seeds) && s.depth <= 64 {
			t.Errorf("seed %d: the deep stream queued at most %d events", i, s.depth)
		}
	}
}
