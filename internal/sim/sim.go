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

// schedStamp records the scheduling provenance of an event: when it was
// inserted and by whom. The stamp extends the queue ordering key so that the
// relative order of same-(tick, priority) events is decided by information
// that is identical whether the simulation runs on one event queue or on
// sharded per-domain queues (see ShardConfig): the insertion tick, the
// identity of the dispatching event (its priority and own insertion tick),
// and the insertion's index within that dispatch class. Within a single
// queue the stamp is provably monotone in insertion order (each field is
// nondecreasing along seq), so adding it to the comparator refines nothing:
// serial event order — and therefore every stat, trace, and report — is
// bit-identical to the pre-stamp ordering.
type schedStamp struct {
	at    Tick   // queue time at insertion
	pPrio int    // priority of the dispatching event (0 outside dispatch)
	pAt   Tick   // insertion tick of the dispatching event
	pIdx  uint32 // insertion index within the (at, pPrio, pAt) dispatch class
}

// less orders stamps lexicographically.
func (s schedStamp) less(o schedStamp) (bool, bool) {
	if s.at != o.at {
		return s.at < o.at, true
	}
	if s.pPrio != o.pPrio {
		return s.pPrio < o.pPrio, true
	}
	if s.pAt != o.pAt {
		return s.pAt < o.pAt, true
	}
	if s.pIdx != o.pIdx {
		return s.pIdx < o.pIdx, true
	}
	return false, false
}

// Event is a schedulable callback, with one of two lifetimes. A persistent
// event (NewEvent, NewEventPrio) is created once by the SimObject that owns
// it and may be scheduled, descheduled, and rescheduled many times, but never
// scheduled twice concurrently. A one-shot event (System.OneShot) is owned by
// the queue that will fire it: no caller holds it, and once its callback
// returns the queue reuses it (DESIGN.md §18).
type Event struct {
	name   string
	prio   int
	fire   func()
	fn     FuncID // host-model function attributed to this event's work
	domain Domain // owning shard domain under sharded execution

	when     Tick
	seq      uint64
	pos      int // index in the owning heap, -1 when unscheduled
	stamp    schedStamp
	stampSet bool // next insertion keeps the pre-assigned stamp (mailbox post)
	oneShot  bool // recycled by the queue that fires it (see oneShots)
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

// SetDomain assigns the event to a simulation domain and returns the event
// for chaining. Events default to DomainCPU; only events whose callback must
// execute on another domain's shard (the DRAM side of the memory bus) are
// tagged. The tag is inert unless sharded execution is enabled. It panics if
// the event is currently scheduled.
func (e *Event) SetDomain(d Domain) *Event {
	if e.pos >= 0 {
		panic(fmt.Sprintf("sim: SetDomain on scheduled event %s", e.name))
	}
	e.domain = d
	return e
}

// Domain returns the event's simulation domain.
func (e *Event) Domain() Domain { return e.domain }

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
// priority, then the scheduling provenance stamp, then earlier insertion
// (seq) for stability. The stamp is redundant within one queue (it is
// monotone in seq, see schedStamp) but makes the order of same-(tick,
// priority) events from different shards match the single-queue order
// without a shared insertion counter.
func (e *Event) before(o *Event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	if less, decided := e.stamp.less(o.stamp); decided {
		return less
	}
	return e.seq < o.seq
}

// Queue is the scheduling backend interface. Two implementations exist: the
// default binary-heap queue and a calendar queue (see DESIGN.md ablation A5).
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
	// pool returns the queue's one-shot free list (embed oneShots).
	pool() *oneShots
	// clock returns the cell holding the queue's current time. A System
	// keeps it, and the free list, from construction on, so that Now,
	// ScheduleIn and OneShot make no call through this interface.
	clock() *Tick
	// drain is System.Run's loop over this queue, with direct calls to its
	// own Empty, NextTick and ServiceOne: it fires events, counting each in
	// s.serviced once it returns, until the queue empties, the next event
	// lies past limit, or s.serviced reaches budget, and reports which. A
	// RequestExit unwinds out of it to Run, which recovers it once per run.
	drain(s *System, limit Tick, budget uint64) ExitStatus
}

// maxFreeOneShots bounds a queue's free list: events cross the shard mailbox
// in unequal numbers (a writeback goes to the memory shard and is never
// answered), and the receiving list must not grow for as long as a guest runs.
const maxFreeOneShots = 1024

// oneShots is the free list of one-shot events embedded by every Queue
// implementation. ServiceOne puts an event back on the queue that fired it,
// after its callback returned; System.OneShot gets one from the queue the
// calling goroutine executes. Each list therefore has one goroutine as owner
// and needs no lock, sharded or not.
type oneShots struct{ free []*Event }

func (p *oneShots) pool() *oneShots { return p }

// get returns a one-shot event, recycled when the list has one.
func (p *oneShots) get(name string, fn FuncID, d Domain, fire func()) *Event {
	n := len(p.free)
	if n == 0 {
		return &Event{name: name, fire: fire, fn: fn, domain: d, pos: -1, oneShot: true}
	}
	e := p.free[n-1]
	p.free = p.free[:n-1]
	e.name, e.fire, e.fn, e.domain = name, fire, fn, d
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

// stamper is the shared scheduling-provenance bookkeeping embedded by every
// Queue implementation: it assigns each inserted event its schedStamp and
// tracks the dispatch class of the event currently firing.
type stamper struct {
	dispWhen Tick // tick of the event being dispatched
	dispPrio int  // priority of the event being dispatched
	dispAt   Tick // insertion tick of the event being dispatched
	dispIdx  uint32
	// panicCtx, when set, is appended to queue panic messages (sharded
	// execution installs a shard/window description here).
	panicCtx func() string
}

// stampFor assigns e its insertion stamp unless a pre-assigned stamp (a
// cross-shard mailbox post carrying the poster's provenance) is pending.
func (st *stamper) stampFor(e *Event, now Tick) {
	if e.stampSet {
		e.stampSet = false
		return
	}
	e.stamp = st.takeStamp(now)
}

// takeStamp mints the next insertion stamp for the current dispatch context.
// Cross-shard posts consume a stamp from the posting queue exactly like a
// local insertion would, so local and remote children of one dispatch share
// a single index sequence — the same order a single queue would produce.
func (st *stamper) takeStamp(now Tick) schedStamp {
	s := schedStamp{at: now, pPrio: st.dispPrio, pAt: st.dispAt, pIdx: st.dispIdx}
	st.dispIdx++
	return s
}

// beginDispatch notes the event about to fire. Insertion indices keep
// counting across consecutive dispatches of the same (tick, priority,
// insertion-tick) class — such dispatches pop adjacently, since the class is
// a key prefix under the lexicographic comparator — so children of
// equal-stamped parents still sort in overall insertion order.
func (st *stamper) beginDispatch(e *Event) {
	if e.when != st.dispWhen || e.prio != st.dispPrio || e.stamp.at != st.dispAt {
		st.dispWhen, st.dispPrio, st.dispAt = e.when, e.prio, e.stamp.at
		st.dispIdx = 0
	}
}

// context renders the installed panic context, or "".
func (st *stamper) context() string {
	if st.panicCtx == nil {
		return ""
	}
	return " [" + st.panicCtx() + "]"
}

// SetPanicContext installs a description appended to queue panic messages.
func (st *stamper) SetPanicContext(fn func() string) { st.panicCtx = fn }
