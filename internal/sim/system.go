package sim

import (
	"fmt"
	"math"
	"math/rand"
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
	queue Queue
	// now and free are the queue's clock and one-shot free list, taken
	// once at construction: reading the time and drawing a one-shot make
	// no call through the Queue interface.
	now     *Tick
	free    *oneShots
	objects []SimObject
	byName  map[string]SimObject
	stats   *Registry
	tracer  Tracer
	rng     *rand.Rand
	// tracing is false when the tracer is a *NopTracer: every TraceCall
	// and TraceData is then one predictable branch and no call.
	tracing bool

	fnDispatch FuncID // host function for the event service loop
	fnSchedule FuncID // host function for queue insertion
	serviced   uint64
	started    bool

	// Sharded execution (see EnableSharding). prim points at the root System
	// from a domain view (nil on the root); shard is this view's shard index;
	// eng is non-nil on the root and every view once sharding is enabled.
	prim  *System
	shard int
	eng   *shardEngine
}

// root returns the primary System (itself, unless s is a domain view).
func (s *System) root() *System {
	if s.prim != nil {
		return s.prim
	}
	return s
}

// NewSystem returns a System with a heap event queue, a NopTracer, and a
// deterministic RNG seeded with seed.
func NewSystem(seed int64) *System {
	return NewSystemWith(NewHeapQueue(), NewNopTracer(), seed)
}

// NewSystemWith returns a System using the provided queue backend and tracer.
func NewSystemWith(q Queue, tr Tracer, seed int64) *System {
	s := &System{
		queue:  q,
		now:    q.clock(),
		free:   q.pool(),
		byName: make(map[string]SimObject),
		stats:  NewRegistry(),
		tracer: tr,
		rng:    rand.New(rand.NewSource(seed)),
	}
	_, nop := tr.(*NopTracer)
	s.tracing = !nop
	s.fnDispatch = tr.RegisterFunc("EventQueue::serviceOne", 480, FuncHot)
	s.fnSchedule = tr.RegisterFunc("EventQueue::schedule", 320, FuncHot)
	return s
}

// Queue returns the system's event queue backend.
func (s *System) Queue() Queue { return s.queue }

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

// Rand returns the system's deterministic random source.
func (s *System) Rand() *rand.Rand { return s.rng }

// Now returns the current simulation time.
func (s *System) Now() Tick { return *s.now }

// EventsServiced returns the number of events fired so far, summed over
// both shards. Each shard's counter has a single writer and the sum is read
// between runs, so the aggregate is deterministic.
func (s *System) EventsServiced() uint64 {
	r := s.root()
	n := r.serviced
	if r.eng != nil {
		n += r.eng.views[shardMem].serviced
	}
	return n
}

// Register adds a SimObject. Names must be unique within the system; views
// and the root share one namespace and registration order.
func (s *System) Register(obj SimObject) {
	r := s.root()
	name := obj.Name()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("sim: duplicate SimObject name %q", name))
	}
	r.byName[name] = obj
	r.objects = append(r.objects, obj)
}

// Object returns the SimObject with the given name, or nil.
func (s *System) Object(name string) SimObject { return s.root().byName[name] }

// Objects returns all registered SimObjects in registration order.
func (s *System) Objects() []SimObject { return s.root().objects }

// Schedule inserts e at absolute tick when, attributing the queue work to
// the host model. Under sharded execution an event whose domain lives on
// another shard is routed through the engine's mailbox instead of the local
// queue (see shardEngine.post).
func (s *System) Schedule(e *Event, when Tick) {
	if s.eng != nil && shardOf(e.domain) != s.shard {
		s.eng.post(s, e, when)
		return
	}
	s.TraceCall(s.fnSchedule)
	s.queue.Schedule(e, when)
}

// ScheduleIn inserts e delta ticks in the future.
func (s *System) ScheduleIn(e *Event, delta Tick) {
	s.Schedule(e, *s.now+delta)
}

// OneShot fires fire once, delay ticks from now, on domain d's shard. No
// handle is returned, so a one-shot can be neither descheduled nor observed
// after it fired; the queue that fires it takes the event back. Ordering is
// that of ScheduleIn with a fresh event: seq and stamp are assigned at
// insertion. The event comes from the caller's queue's free list — the only
// one this goroutine may touch — also when it crosses to the other shard,
// where the traffic coming back draws on the list it retires to in turn.
func (s *System) OneShot(name string, fn FuncID, d Domain, delay Tick, fire func()) {
	s.Schedule(s.free.get(name, fn, d, fire), *s.now+delay)
}

// Deschedule removes a scheduled event. Under sharding an event owned by the
// other shard cannot be descheduled (no component moves an event it does not
// own, and supporting it would need a cancellation protocol).
func (s *System) Deschedule(e *Event) {
	if s.eng != nil && shardOf(e.domain) != s.shard {
		panic(fmt.Sprintf("sim: cross-shard Deschedule of %s (domain %s)", e.name, e.domain))
	}
	s.queue.Deschedule(e)
}

// Reschedule moves e to absolute tick when, scheduling it if necessary.
// Like Deschedule, it is not supported across shards.
func (s *System) Reschedule(e *Event, when Tick) {
	if s.eng != nil && shardOf(e.domain) != s.shard {
		panic(fmt.Sprintf("sim: cross-shard Reschedule of %s (domain %s)", e.name, e.domain))
	}
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
// With sharding enabled the run executes on two queues in parallel; results
// are bit-identical to the serial run (see shardedqueue.go).
//
// Serially the queue drains itself (Queue.drain), and a RequestExit unwinds
// out of that loop to here: it is recovered once per Run, not per event.
// The exiting event counts, as every event that fired does.
func (s *System) Run(limit Tick, maxEvents uint64) (res RunResult) {
	if s.eng != nil {
		if s.prim != nil {
			panic("sim: Run on a domain view")
		}
		return s.eng.run(s, limit, maxEvents)
	}
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
		res.Now = *s.now
	}()
	res.Status = s.queue.drain(s, limit, budget)
	return res
}

// EnableSharding splits the system onto two event queues executed in
// parallel under a conservative quantum barrier (see shardedqueue.go): the
// memory domain gets a queue and worker goroutine of its own, everything
// else stays on this System's queue and the goroutine that calls Run. It
// must be called on the root System before any component that schedules
// cross-domain events is constructed, and before simulation begins.
func (s *System) EnableSharding(cfg ShardConfig) {
	if s.prim != nil {
		panic("sim: EnableSharding on a domain view")
	}
	if s.eng != nil {
		panic("sim: EnableSharding called twice")
	}
	if s.started || s.serviced > 0 {
		panic("sim: EnableSharding after simulation began")
	}
	if cfg.Quantum == 0 {
		panic("sim: EnableSharding requires a nonzero quantum (derive it with QuantumFor)")
	}
	var mq Queue
	if cfg.NewQueue != nil {
		mq = cfg.NewQueue()
	} else {
		mq = NewHeapQueue()
	}
	eng := &shardEngine{
		quantum: cfg.Quantum,
		busLook: cfg.BusLookahead,
		under:   s.tracer,
	}
	eng.traceOff = !s.tracing
	mv := &System{
		queue:      mq,
		now:        mq.clock(),
		free:       mq.pool(),
		byName:     s.byName,
		stats:      s.stats,
		rng:        s.rng,
		tracing:    s.tracing,
		fnDispatch: s.fnDispatch,
		fnSchedule: s.fnSchedule,
		prim:       s,
		shard:      shardMem,
		eng:        eng,
	}
	eng.views = [2]*System{s, mv}
	for i, v := range eng.views {
		v.tracer = &shardTracer{eng: eng, shard: i, under: eng.under}
		eng.log[i] = newShardLog()
		if pc, ok := v.queue.(panicContexter); ok {
			shard := i
			pc.SetPanicContext(func() string { return eng.describe(shard) })
		}
	}
	s.eng = eng
}

// Sharded reports whether sharded execution is enabled.
func (s *System) Sharded() bool { return s.root().eng != nil }

// DomainView returns the System facade owning the given domain's events:
// components constructed against it schedule and read time on that domain's
// shard. Without sharding, and for every domain but DomainMem, it returns
// the root System itself. Views share the root's object registry,
// statistics, RNG, and tracer identity.
func (s *System) DomainView(d Domain) *System {
	r := s.root()
	if r.eng == nil {
		return r
	}
	return r.eng.views[shardOf(d)]
}
