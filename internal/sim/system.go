package sim

import (
	"fmt"
	"math"
)

// SimObject is any named component of the simulated system. Mirroring gem5,
// everything from CPUs to caches to devices is a SimObject registered with
// the owning System.
type SimObject interface {
	Name() string
}

// Startable is implemented by SimObjects that need a callback once the whole
// system is constructed, before the first event fires (gem5's startup()).
type Startable interface {
	Startup()
}

// System owns the event queue, the statistics registry, the host tracer, and
// every SimObject of one simulated machine. It is the root object handed to
// all components.
type System struct {
	queue   *HeapQueue
	objects []SimObject
	byName  map[string]SimObject
	stats   *Registry
	tracer  Tracer
	// tracing is false when the tracer is a *NopTracer: every TraceCall
	// and TraceData is then one predictable branch and no call.
	tracing bool

	fnDispatch FuncID // host function for the event service loop
	fnSchedule FuncID // host function for queue insertion
	serviced   uint64
	started    bool
}

// NewSystem returns a System with a NopTracer. Nothing reads seed: a System
// draws no random numbers. The parameter remains only because bench/
// compiles against this signature.
func NewSystem(seed int64) *System {
	return NewSystemWith(NewNopTracer())
}

// NewSystemWith returns a System mirrored onto tr, on an empty HeapQueue.
func NewSystemWith(tr Tracer) *System {
	s := &System{
		queue:  NewHeapQueue(),
		byName: make(map[string]SimObject),
		stats:  NewRegistry(),
		tracer: tr,
	}
	_, nop := tr.(*NopTracer)
	s.tracing = !nop
	s.fnDispatch = tr.RegisterFunc("EventQueue::serviceOne", 480, 0)
	s.fnSchedule = tr.RegisterFunc("EventQueue::schedule", 320, 0)
	return s
}

// Queue returns the system's event queue.
func (s *System) Queue() *HeapQueue { return s.queue }

// Tracer returns the host tracer, for construction-time RegisterFunc and
// AllocData. Run-time annotations go through TraceCall and TraceData.
func (s *System) Tracer() Tracer { return s.tracer }

// Tracing reports whether anything observes the host trace: false when the
// tracer is a *NopTracer. A call site whose arguments cost something to
// compute (a host address, a table lookup) checks it first.
func (s *System) Tracing() bool { return s.tracing }

// TraceCall records one host invocation of fn, when anything traces.
func (s *System) TraceCall(fn FuncID) {
	if s.tracing {
		s.tracer.Call(fn)
	}
}

// TraceData records one host data access, when anything traces.
func (s *System) TraceData(addr uint64, size uint32, write bool) {
	if s.tracing {
		s.tracer.Data(addr, size, write)
	}
}

// Stats returns the statistics registry.
func (s *System) Stats() *Registry { return s.stats }

// Now returns the current simulation time.
func (s *System) Now() Tick { return s.queue.now }

// EventsServiced returns the number of events fired so far.
func (s *System) EventsServiced() uint64 { return s.serviced }

// Register adds a SimObject. Names must be unique within the system.
func (s *System) Register(obj SimObject) {
	name := obj.Name()
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("sim: duplicate SimObject name %q", name))
	}
	s.byName[name] = obj
	s.objects = append(s.objects, obj)
}

// Object returns the SimObject with the given name, or nil.
func (s *System) Object(name string) SimObject { return s.byName[name] }

// Objects returns all registered SimObjects in registration order.
func (s *System) Objects() []SimObject { return s.objects }

// Schedule inserts e at absolute tick when, attributing the queue work to
// the host model.
func (s *System) Schedule(e *Event, when Tick) {
	s.TraceCall(s.fnSchedule)
	s.queue.Schedule(e, when)
}

// ScheduleIn inserts e delta ticks in the future.
func (s *System) ScheduleIn(e *Event, delta Tick) {
	s.Schedule(e, s.queue.now+delta)
}

// OneShot fires fire once, delay ticks from now. No handle is returned, so
// a one-shot can be neither descheduled nor observed after it fired; the
// queue takes the event back once it fired. Ordering is that of ScheduleIn
// with a fresh event: seq is assigned at insertion.
func (s *System) OneShot(name string, fn FuncID, delay Tick, fire func()) {
	s.Schedule(s.queue.get(name, fn, fire), s.queue.now+delay)
}

// Deschedule removes a scheduled event.
func (s *System) Deschedule(e *Event) { s.queue.Deschedule(e) }

// Reschedule moves e to absolute tick when, scheduling it if necessary.
func (s *System) Reschedule(e *Event, when Tick) {
	s.TraceCall(s.fnSchedule)
	s.queue.Reschedule(e, when)
}

// startup runs Startup on every object exactly once.
func (s *System) startup() {
	if s.started {
		return
	}
	s.started = true
	for _, obj := range s.objects {
		if st, ok := obj.(Startable); ok {
			st.Startup()
		}
	}
}

// ExitStatus describes why a simulation run returned.
type ExitStatus int

const (
	// ExitQueueEmpty means no events remained.
	ExitQueueEmpty ExitStatus = iota
	// ExitLimit means the tick limit was reached.
	ExitLimit
	// ExitEventLimit means the maximum event count was reached.
	ExitEventLimit
	// ExitRequested means a component called RequestExit.
	ExitRequested
)

func (e ExitStatus) String() string {
	switch e {
	case ExitQueueEmpty:
		return "queue empty"
	case ExitLimit:
		return "tick limit"
	case ExitEventLimit:
		return "event limit"
	case ExitRequested:
		return "exit requested"
	}
	return fmt.Sprintf("ExitStatus(%d)", int(e))
}

// exitRequest carries a component-initiated simulation exit.
type exitRequest struct {
	reason string
	code   int
}

// RequestExit stops the current Run call after the current event completes.
func (s *System) RequestExit(reason string, code int) {
	panic(&exitRequest{reason: reason, code: code})
}

// RunResult describes a completed Run call.
type RunResult struct {
	Status     ExitStatus
	ExitReason string
	ExitCode   int
	Now        Tick
	Events     uint64
}

// Run services events until the queue empties, limit ticks is exceeded,
// maxEvents events have fired (0 = unlimited), or a component requests exit.
//
// A RequestExit unwinds out of the loop (drain) to here: it is recovered
// once per Run, not per event. The exiting event counts, as every event
// that fired does.
func (s *System) Run(limit Tick, maxEvents uint64) (res RunResult) {
	s.startup()
	start := s.serviced
	budget := uint64(math.MaxUint64)
	if maxEvents > 0 && maxEvents < budget-start {
		budget = start + maxEvents
	}
	defer func() {
		if r := recover(); r != nil {
			ex, ok := r.(*exitRequest)
			if !ok {
				panic(r)
			}
			s.serviced++ // the exiting event fired, but drain did not count it
			res.Status = ExitRequested
			res.ExitReason = ex.reason
			res.ExitCode = ex.code
		}
		res.Events = s.serviced - start
		res.Now = s.queue.now
	}()
	res.Status = s.drain(limit, budget)
	return res
}

// drain is Run's loop: it fires events, counting each in s.serviced once it
// returns, until the queue empties, the next event lies past limit, or
// s.serviced reaches budget, and reports which.
func (s *System) drain(limit Tick, budget uint64) ExitStatus {
	q := s.queue
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
