// Package sim provides the discrete-event simulation core used by the g5
// guest simulator: simulation time (ticks), events, event queues, the System
// container that owns every simulated object, and the Tracer interface
// through which simulator activity is mirrored onto a host-machine model.
//
// The design deliberately follows the skeleton of the gem5 simulator that the
// reproduced paper profiles: a single global event queue ordered by
// (tick, priority, insertion order), polymorphic SimObjects whose methods run
// inside event callbacks, and a statistics registry populated at the end of
// simulation.
package sim

import "fmt"

// Tick is the unit of simulated guest time. As in gem5, one tick is one
// picosecond, so a 1 GHz guest clock advances 1000 ticks per cycle.
type Tick uint64

// Common durations expressed in ticks.
const (
	Picosecond  Tick = 1
	Nanosecond  Tick = 1000
	Microsecond Tick = 1000 * Nanosecond
	Millisecond Tick = 1000 * Microsecond
	Second      Tick = 1000 * Millisecond
)

// MaxTick is the largest representable simulation time.
const MaxTick = Tick(^uint64(0))

// Event priorities. Lower values fire first among events scheduled for the
// same tick. The values mirror gem5's event priority bands.
const (
	PrioMinimum      = -100
	PrioDebug        = -20
	PrioCPUSwitch    = -11
	PrioDelayedWrite = -8
	PrioCPUTick      = -1
	PrioDefault      = 0
	PrioSerialize    = 31
	PrioMaximum      = 100
)

// Event is a schedulable callback, with one of two lifetimes. A persistent
// event (NewEvent, NewEventPrio) is created once by the SimObject that owns
// it and may be scheduled, descheduled, and rescheduled many times, but never
// scheduled twice concurrently. A one-shot event (System.OneShot) is owned by
// the queue that will fire it: no caller holds it, and once its callback
// returns the queue reuses it (DESIGN.md §18).
type Event struct {
	name string
	prio int
	fire func()
	fn   FuncID // host-model function attributed to this event's work

	when    Tick
	seq     uint64
	pos     int  // -1 when unscheduled; the calendar queue's bucket, 0 in a HeapQueue
	oneShot bool // recycled by the queue that fires it (see oneShots)
}

// NewEvent returns a persistent event with the given debug name,
// host-function attribution and callback. A zero FuncID attributes the event
// to the scheduler itself. Construct it once and reschedule it; a callback
// that fires once per access belongs in System.OneShot instead.
func NewEvent(name string, fn FuncID, fire func()) *Event {
	return &Event{name: name, prio: PrioDefault, fire: fire, fn: fn, pos: -1}
}

// NewEventPrio is NewEvent with an explicit same-tick priority.
func NewEventPrio(name string, fn FuncID, prio int, fire func()) *Event {
	return &Event{name: name, prio: prio, fire: fire, fn: fn, pos: -1}
}

// Name returns the event's debug name.
func (e *Event) Name() string { return e.name }

// Scheduled reports whether the event is currently in a queue.
func (e *Event) Scheduled() bool { return e.pos >= 0 }

// When returns the tick the event is scheduled for. It is only meaningful
// while Scheduled() is true.
func (e *Event) When() Tick { return e.when }

// Priority returns the event's same-tick priority.
func (e *Event) Priority() int { return e.prio }

func (e *Event) String() string {
	if e.Scheduled() {
		return fmt.Sprintf("%s@%d", e.name, e.when)
	}
	return e.name + "@unscheduled"
}

// before reports whether e must fire before o: earlier tick first, then lower
// priority, then earlier insertion (seq) for stability.
func (e *Event) before(o *Event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	return e.seq < o.seq
}

// Queue is the interface of a bare event-queue backend. A System runs on
// its HeapQueue, a sorted deque (DESIGN.md §27), and calls it directly; the
// interface and its second implementation, CalendarQueue, remain only
// because bench/ times both through it.
type Queue interface {
	// Now returns the current simulation time.
	Now() Tick
	// Schedule inserts e at tick when. It panics if e is already scheduled
	// or when is in the past.
	Schedule(e *Event, when Tick)
	// Deschedule removes a scheduled event. It panics if e is not scheduled.
	Deschedule(e *Event)
	// Reschedule moves a (possibly unscheduled) event to tick when.
	Reschedule(e *Event, when Tick)
	// Empty reports whether no events are pending.
	Empty() bool
	// NextTick returns the tick of the earliest pending event. It panics if
	// the queue is empty.
	NextTick() Tick
	// ServiceOne advances time to the earliest event and fires it. It
	// returns false if the queue was empty.
	ServiceOne() bool
	// Peek returns the earliest pending event without firing it, or nil if
	// the queue is empty.
	Peek() *Event
	// Len returns the number of pending events.
	Len() int
}

// maxFreeOneShots bounds a queue's free list, so that a burst of
// outstanding one-shots does not keep its events for as long as a guest runs.
const maxFreeOneShots = 1024

// oneShots is the free list of one-shot events embedded by every Queue
// implementation. ServiceOne puts an event back after its callback
// returned, and System.OneShot gets one from its HeapQueue.
type oneShots struct{ free []*Event }

// get returns a one-shot event, recycled when the list has one.
func (p *oneShots) get(name string, fn FuncID, fire func()) *Event {
	n := len(p.free)
	if n == 0 {
		return &Event{name: name, fire: fire, fn: fn, pos: -1, oneShot: true}
	}
	e := p.free[n-1]
	p.free = p.free[:n-1]
	e.name, e.fire, e.fn = name, fire, fn
	return e
}

// put takes a fired event back if it is a one-shot, dropping the callback so
// that what it captured does not outlive the access it completed.
func (p *oneShots) put(e *Event) {
	if e.oneShot && len(p.free) < maxFreeOneShots {
		e.fire = nil
		p.free = append(p.free, e)
	}
}
