package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// naiveRun is the serial System.Run loop from before Run recovered once per
// run, kept as the reference FuzzRunEquivalence compares against: every
// event is fired under a recover of its own.
func naiveRun(s *System, limit Tick, maxEvents uint64) RunResult {
	s.startup()
	res := RunResult{Status: ExitQueueEmpty}
	for {
		if s.queue.Empty() {
			res.Status = ExitQueueEmpty
			break
		}
		if s.queue.NextTick() > limit {
			res.Status = ExitLimit
			break
		}
		if maxEvents > 0 && res.Events >= maxEvents {
			res.Status = ExitEventLimit
			break
		}
		stop := naiveServiceOne(s, &res)
		res.Events++
		s.serviced++
		if stop {
			break
		}
	}
	res.Now = s.queue.Now()
	return res
}

// naiveServiceOne fires one event, translating a RequestExit into a clean
// stop. It returns true when the run should stop.
func naiveServiceOne(s *System, res *RunResult) (stop bool) {
	defer func() {
		if r := recover(); r != nil {
			if ex, ok := r.(*exitRequest); ok {
				res.Status = ExitRequested
				res.ExitReason = ex.reason
				res.ExitCode = ex.code
				stop = true
				return
			}
			panic(r)
		}
	}()
	s.TraceCall(s.fnDispatch)
	s.queue.ServiceOne()
	return false
}

// runProgram replays one fuzz-generated program on a System: a few
// schedules, then a series of Runs under tick and event limits, each stop
// followed by another Run, and a last unlimited Run. Every fired event
// consumes the next op of the same stream, so events are scheduled,
// descheduled, rescheduled, posted as one-shots and exits requested from
// inside callbacks.
type runProgram struct {
	sys    *System
	run    func(s *System, limit Tick, maxEvents uint64) RunResult
	data   []byte
	pos    int
	events []*Event
	posted int // one-shots posted so far; the next one's id is 1000+posted

	fired    []firedRec
	results  []RunResult
	now      []Tick
	serviced []uint64
}

func (p *runProgram) next() byte {
	if p.pos >= len(p.data) {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return b
}

func (p *runProgram) more() bool { return p.pos < len(p.data) }

// perform runs one op. inEvent is false before the first Run, where an exit
// request has no Run to stop.
func (p *runProgram) perform(op byte, inEvent bool) {
	s := p.sys
	switch op % 8 {
	case 0, 1: // schedule near
		e, d := p.events[int(p.next())%len(p.events)], Tick(p.next())
		if !e.Scheduled() {
			s.ScheduleIn(e, d)
		}
	case 2: // deschedule
		if e := p.events[int(p.next())%len(p.events)]; e.Scheduled() {
			s.Deschedule(e)
		}
	case 3: // reschedule, scheduling if unscheduled
		e, d := p.events[int(p.next())%len(p.events)], Tick(p.next())
		s.Reschedule(e, s.Now()+3*d)
	case 4: // one-shot
		id := 1000 + p.posted
		p.posted++
		s.OneShot("o", 0, Tick(p.next()), func() { p.fire(id) })
	case 5: // schedule far
		e := p.events[int(p.next())%len(p.events)]
		d := Tick(p.next())<<8 | Tick(p.next())
		if !e.Scheduled() {
			s.Schedule(e, s.Now()+7*d)
		}
	case 6: // request exit
		code := int(p.next())
		if inEvent {
			s.RequestExit(fmt.Sprintf("exit %d", code), code)
		}
	case 7: // nothing: an event that schedules no successor
	}
}

// fire is every event's callback: log, then one follow-on op.
func (p *runProgram) fire(id int) {
	p.fired = append(p.fired, firedRec{id, p.sys.Now()})
	if p.more() {
		p.perform(p.next(), true)
	}
}

// play runs the whole program.
func (p *runProgram) play() {
	for i := range p.events {
		id := i
		p.events[i] = NewEventPrio("f", 0, int(p.next()%5)-2, func() { p.fire(id) })
	}
	for n := p.next() % 16; n > 0; n-- {
		p.perform(p.next(), false)
	}
	record := func(res RunResult) {
		p.results = append(p.results, res)
		p.now = append(p.now, p.sys.Now())
		p.serviced = append(p.serviced, p.sys.EventsServiced())
	}
	for r := 0; r < 6 && p.more(); r++ {
		limit, maxEvents := MaxTick, uint64(p.next()%8)
		if b := p.next(); b%4 != 0 {
			limit = p.sys.Now() + 8*Tick(b)
		}
		record(p.run(p.sys, limit, maxEvents))
	}
	record(p.run(p.sys, MaxTick, 0))
}

// FuzzRunEquivalence drives random event programs through System.Run and
// through naiveRun, and requires of both the same fired order, RunResults,
// Now, EventsServiced and host trace calls.
func FuzzRunEquivalence(f *testing.F) {
	// Run parameters are read when each Run starts; an event's op when it
	// fires.
	// An exit at the second event of the first Run; the second Run resumes
	// with the third.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0, 0, // priorities
		3, 0, 0, 10, 0, 1, 20, 0, 2, 30, // three ops: e0@10, e1@20, e2@30
		0, 0, // Run unlimited
		7,     // e0
		6, 42, // e1 requests exit
		0, 0, // Run unlimited
		7, // e2
	})
	// A tick limit that the event at the limit's tick does not reach, then
	// an event limit reached as the queue empties.
	f.Add([]byte{
		1, 2, 3, 4, 0, 1, 2, 3,
		2, 0, 0, 5, 0, 1, 6, // e0@5, e1@6
		0, 1, // Run to tick 8
		0, 2, 3, // e0: e2@8
		7,       // e1
		0, 3, 1, // e2: e3@9, past the limit
		1, 0, // Run one event
		7, // e3
	})
	// One-shots posted at the tick of the firing event from inside events
	// of lower and equal priority, a reschedule from inside a one-shot, and
	// an exit from the rescheduled event.
	f.Add([]byte{
		0, 2, 2, 2, 2, 2, 2, 2, // e0 at priority -2, the others at 0
		2, 4, 3, 0, 0, 3, // o1000@3, e0@3
		0, 0, // Run unlimited
		4, 0, // e0: o1001@3
		4, 0, // o1000: o1002@3
		3, 0, 2, // o1001: e0@9
		7,    // o1002
		6, 5, // e0 requests exit
		0, 0, // Run unlimited
	})
	rng := rand.New(rand.NewSource(38))
	for k := 0; k < 12; k++ {
		buf := make([]byte, 64+32*k)
		rng.Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		type variant struct {
			name string
			run  func(s *System, limit Tick, maxEvents uint64) RunResult
		}
		variants := []variant{{"naive", naiveRun}, {"Run", (*System).Run}}
		var ref *runProgram
		var refTrace []string
		for _, v := range variants {
			tr := &seqTracer{}
			p := &runProgram{sys: NewSystemWith(tr), run: v.run, data: data, events: make([]*Event, 8)}
			p.play()
			if ref == nil {
				ref, refTrace = p, tr.log
				continue
			}
			for i := 0; i < len(p.fired) || i < len(ref.fired); i++ {
				if i >= len(p.fired) || i >= len(ref.fired) || p.fired[i] != ref.fired[i] {
					t.Fatalf("%s: fired %d events, %s %d; first difference at %d", v.name, len(p.fired), variants[0].name, len(ref.fired), i)
				}
			}
			if !reflect.DeepEqual(p.results, ref.results) {
				t.Fatalf("%s: runs returned\n%+v\n%s:\n%+v", v.name, p.results, variants[0].name, ref.results)
			}
			if !reflect.DeepEqual(p.now, ref.now) || !reflect.DeepEqual(p.serviced, ref.serviced) {
				t.Fatalf("%s: Now %v, EventsServiced %v after each run; %s: %v, %v",
					v.name, p.now, p.serviced, variants[0].name, ref.now, ref.serviced)
			}
			if !reflect.DeepEqual(tr.log, refTrace) {
				t.Fatalf("%s: %d host calls differ from %s's %d", v.name, len(tr.log), variants[0].name, len(refTrace))
			}
		}
	})
}
