package sim

import (
	"math/rand"
	"testing"
)

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
	check  func() error // structural invariant, nil for the heap
	err    error
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
	s.q.Schedule(s.q.pool().get("o", 0, DomainCPU, func() { s.fired(id) }), s.q.Now()+Tick(d))
	if s.check != nil && s.err == nil {
		s.err = s.check()
	}
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

// run replays the whole stream, then drains the queue.
func (s *queueStream) run() {
	for i := range s.events {
		id := i
		s.events[i] = NewEvent("f", 0, func() { s.fired(id) })
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
			if s.check != nil && s.err == nil {
				s.err = s.check()
			}
		}
	}
	for n := 0; n < 1<<16 && s.q.ServiceOne(); n++ {
		if s.check != nil && s.err == nil {
			s.err = s.check()
		}
	}
}

func replay(q Queue, data []byte, check func() error) *queueStream {
	s := &queueStream{q: q, data: data, events: make([]*Event, 12), check: check}
	s.run()
	return s
}

// FuzzQueueEquivalence drives HeapQueue and CalendarQueue with the same
// schedule/deschedule/reschedule/peek stream and asserts an identical fire
// order, plus the calendar queue's structural invariant after every step.
// The geometry (8 buckets x 16 ticks) is small so near-future schedules slide
// the window and far ones overflow and jump it.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		h := replay(NewHeapQueue(), data, nil)
		c := replay(NewCalendarQueue(8, 16), data, nil)
		cal := c.q.(*CalendarQueue)
		if err := cal.checkInvariant(); err != nil {
			t.Fatalf("calendar invariant: %v", err)
		}
		if len(h.log) != len(c.log) {
			t.Fatalf("heap fired %d events, calendar fired %d", len(h.log), len(c.log))
		}
		for i := range h.log {
			if h.log[i] != c.log[i] {
				t.Fatalf("divergence at %d: heap %+v, calendar %+v", i, h.log[i], c.log[i])
			}
		}
	})
}

// TestFuzzInvariantChecked replays the regression seeds with the per-step
// invariant check enabled (the fuzz body checks only at the end to keep the
// fuzzing loop fast).
func TestFuzzInvariantChecked(t *testing.T) {
	seeds := [][]byte{
		{4, 0, 0xff, 0xff, 5, 0, 1, 0, 6, 6},
		{0, 0, 120, 5, 0, 1, 2, 6, 6},
		{0, 0, 50, 1, 1, 60, 3, 0, 10, 6, 2, 1, 4, 2, 1, 100, 6, 5, 0, 3, 0, 6, 6},
		{7, 3, 7, 3, 0, 0, 3, 6, 7, 0, 6, 7, 5, 6, 6, 6, 6},
	}
	for i, data := range seeds {
		q := NewCalendarQueue(8, 16)
		s := replay(q, data, q.checkInvariant)
		if s.err != nil {
			t.Errorf("seed %d: invariant violated: %v", i, s.err)
		}
	}
}
