package sim

import (
	"fmt"
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
	queue   Queue
	objects []SimObject
	byName  map[string]SimObject
	stats   *Registry
	tracer  Tracer
	rng     *rand.Rand

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
		byName: make(map[string]SimObject),
		stats:  NewRegistry(),
		tracer: tr,
		rng:    rand.New(rand.NewSource(seed)),
	}
	s.fnDispatch = tr.RegisterFunc("EventQueue::serviceOne", 480, FuncHot)
	s.fnSchedule = tr.RegisterFunc("EventQueue::schedule", 320, FuncHot)
	return s
}

// Queue returns the system's event queue backend.
func (s *System) Queue() Queue { return s.queue }

// Tracer returns the host tracer.
func (s *System) Tracer() Tracer { return s.tracer }

// Stats returns the statistics registry.
func (s *System) Stats() *Registry { return s.stats }

// Rand returns the system's deterministic random source.
func (s *System) Rand() *rand.Rand { return s.rng }

// Now returns the current simulation time.
func (s *System) Now() Tick { return s.queue.Now() }

// EventsServiced returns the number of events fired so far, summed over all
// shards. Each shard's counter has a single writer and the sum is read
// between runs, so the aggregate is deterministic.
func (s *System) EventsServiced() uint64 {
	r := s.root()
	n := r.serviced
	if r.eng != nil {
		for _, v := range r.eng.views {
			if v != r {
				n += v.serviced
			}
		}
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
	if s.eng != nil {
		if dst := s.eng.layout[e.domain]; dst != s.shard {
			s.eng.post(s, dst, e, when)
			return
		}
	}
	s.tracer.Call(s.fnSchedule)
	s.queue.Schedule(e, when)
}

// ScheduleIn inserts e delta ticks in the future.
func (s *System) ScheduleIn(e *Event, delta Tick) {
	s.Schedule(e, s.queue.Now()+delta)
}

// OneShot fires fire once, delay ticks from now, on domain d's shard. No
// handle is returned, so a one-shot can be neither descheduled nor observed
// after it fired; the queue that fires it takes the event back. Ordering is
// that of ScheduleIn with a fresh event: seq and stamp are assigned at
// insertion. The event comes from the free list it will return to when that
// list is this goroutine's to touch — the caller's queue or another group
// shard's (a core-private cache is built on the root view but fires on its
// core's shard) — and from the caller's list when it crosses to the worker,
// where the traffic coming back draws on it in turn.
func (s *System) OneShot(name string, fn FuncID, d Domain, delay Tick, fire func()) {
	from := s
	if s.eng != nil && s.eng.isGroup(s.shard) && s.eng.isGroup(s.eng.layout[d]) {
		from = s.eng.views[s.eng.layout[d]]
	}
	s.Schedule(from.queue.pool().get(name, fn, d, fire), s.queue.Now()+delay)
}

// Deschedule removes a scheduled event. Under sharding an event owned by
// another affine group shard may be descheduled directly (both shards
// execute on the coordinator goroutine — guest cores park and wake each
// other through the threading syscalls); descheduling across the worker
// boundary is not supported.
func (s *System) Deschedule(e *Event) {
	if s.eng != nil {
		if dst := s.eng.layout[e.domain]; dst != s.shard {
			if s.eng.isGroup(dst) && s.eng.isGroup(s.shard) {
				s.eng.views[dst].queue.Deschedule(e)
				return
			}
			panic(fmt.Sprintf("sim: cross-shard Deschedule of %s (domain %s)", e.name, e.domain))
		}
	}
	s.queue.Deschedule(e)
}

// Reschedule moves e to absolute tick when, scheduling it if necessary.
// Like Deschedule, reschedules between affine group shards are direct;
// across the worker boundary they are not supported (no component moves an
// event it does not own, and supporting it would need a cancellation
// protocol).
func (s *System) Reschedule(e *Event, when Tick) {
	if s.eng != nil {
		if dst := s.eng.layout[e.domain]; dst != s.shard {
			if s.eng.isGroup(dst) && s.eng.isGroup(s.shard) {
				s.tracer.Call(s.fnSchedule)
				s.eng.views[dst].queue.Reschedule(e, when)
				return
			}
			panic(fmt.Sprintf("sim: cross-shard Reschedule of %s (domain %s)", e.name, e.domain))
		}
	}
	s.tracer.Call(s.fnSchedule)
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
// With sharding enabled the run executes on per-domain queues in parallel;
// results are bit-identical to the serial run (see shardedqueue.go).
func (s *System) Run(limit Tick, maxEvents uint64) RunResult {
	if s.eng != nil {
		if s.prim != nil {
			panic("sim: Run on a domain view")
		}
		return s.eng.run(s, limit, maxEvents)
	}
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
		stop := s.serviceOneCatching(&res)
		res.Events++
		s.serviced++
		if stop {
			break
		}
	}
	res.Now = s.queue.Now()
	return res
}

// EnableSharding splits the system onto per-domain event queues executed in
// parallel under a conservative per-edge lookahead barrier (see
// shardedqueue.go). It must be called on the root System before any
// component that schedules cross-domain events is constructed, and before
// simulation begins. With cfg.Shards < 2 (and no explicit Plan) it is a
// no-op and the system stays serial. The topology comes from cfg.Plan when
// given, otherwise from the derived guest layout: shard 0 is the
// coordinator (DomainCPU + DomainDev), the last shard is the memory worker,
// and with Cores > 1 and Shards > 2 up to min(Shards-2, Cores-1, 3)
// per-core domains get affine shards of their own. Requests beyond the
// partitionable domains clamp; the returned ShardInfo reports the effective
// layout and cfg.Log (when set) receives it as one line, so a clamp is
// visible at startup instead of discovered later.
func (s *System) EnableSharding(cfg ShardConfig) ShardInfo {
	if s.prim != nil {
		panic("sim: EnableSharding on a domain view")
	}
	if s.eng != nil {
		panic("sim: EnableSharding called twice")
	}
	if cfg.Plan == nil && cfg.Shards < 2 {
		return ShardInfo{Requested: cfg.Shards, Shards: 1, Layout: "serial"}
	}
	if s.started || s.serviced > 0 {
		panic("sim: EnableSharding after simulation began")
	}
	plan := cfg.Plan
	if plan == nil {
		if cfg.Quantum == 0 {
			panic("sim: EnableSharding requires a nonzero quantum (derive it with QuantumFor)")
		}
		plan = derivePlan(cfg)
	}
	plan.validate()
	n := len(plan.Worker)
	newQ := cfg.NewQueue
	if newQ == nil {
		newQ = func() Queue { return NewHeapQueue() }
	}
	eng := &shardEngine{
		layout: plan.Layout,
		look:   plan.Look,
		under:  s.tracer,
		lookGM: LookInf,
		lookMG: LookInf,
	}
	for i, w := range plan.Worker {
		if w {
			eng.mem = i
		} else {
			eng.group = append(eng.group, i)
		}
	}
	for _, g := range eng.group {
		if lk := plan.Look[g][eng.mem]; lk < eng.lookGM {
			eng.lookGM = lk
		}
		if lk := plan.Look[eng.mem][g]; lk < eng.lookMG {
			eng.lookMG = lk
		}
	}
	if _, nop := s.tracer.(*NopTracer); nop {
		eng.traceOff = true
	}
	eng.views = make([]*System, n)
	eng.log = make([]*shardLog, n)
	eng.names = make([]string, n)
	eng.views[0] = s
	for i := 1; i < n; i++ {
		v := &System{
			queue:      newQ(),
			byName:     s.byName,
			stats:      s.stats,
			rng:        s.rng,
			fnDispatch: s.fnDispatch,
			fnSchedule: s.fnSchedule,
			prim:       s,
			shard:      i,
			eng:        eng,
		}
		v.tracer = &shardTracer{eng: eng, shard: i, under: eng.under}
		eng.views[i] = v
	}
	s.tracer = &shardTracer{eng: eng, shard: 0, under: eng.under}
	s.eng = eng
	// Affine group shards share the coordinator queue's provenance stamper
	// (their merged dispatch order must mint stamps like one queue) and must
	// support clock syncing; the worker keeps its own stamper.
	rootSharer, rootOK := s.queue.(stampSharer)
	for i, v := range eng.views {
		eng.log[i] = newShardLog(i)
		if i != 0 && eng.isGroup(i) {
			sh, shOK := v.queue.(stampSharer)
			_, csOK := v.queue.(clockSyncer)
			if !rootOK || !shOK || !csOK {
				panic(fmt.Sprintf("sim: queue backend %T does not support affine group shards (needs shared stamping and clock sync)", v.queue))
			}
			sh.shareStamper(rootSharer.stamperPtr())
		}
		if pc, ok := v.queue.(panicContexter); ok {
			shard := i
			pc.SetPanicContext(func() string { return eng.describe(shard) })
		}
	}
	// Resolve the group clock syncers once: syncGroup runs per dispatched
	// event and must not re-assert the interface each time.
	for _, g := range eng.group {
		if cs, ok := eng.views[g].queue.(clockSyncer); ok {
			eng.syncers = append(eng.syncers, cs)
		}
	}
	layout := plan.layoutString(cfg.Cores)
	for i := range eng.names {
		eng.names[i] = shardDomains(plan, i)
	}
	requested := cfg.Shards
	if cfg.Plan != nil {
		requested = n
	}
	eng.info = ShardInfo{
		Requested: requested,
		Shards:    n,
		Workers:   1,
		Clamped:   requested != n,
		Layout:    layout,
	}
	if cfg.Log != nil {
		cfg.Log("sharding: " + eng.info.String())
	}
	return eng.info
}

// ShardInfo returns the effective layout settled on by EnableSharding (the
// zero value when the system is serial).
func (s *System) ShardInfo() ShardInfo {
	if r := s.root(); r.eng != nil {
		return r.eng.info
	}
	return ShardInfo{Shards: 1, Layout: "serial"}
}

// shardDomains names one shard for messages: "cpu+dev" for the coordinator,
// the "+"-joined domain names otherwise.
func shardDomains(p *ShardPlan, shard int) string {
	if shard == 0 {
		return "cpu+dev"
	}
	s, sep := "", ""
	for d := Domain(0); d < NumDomains; d++ {
		if p.Layout[d] == shard {
			s += sep + d.String()
			sep = "+"
		}
	}
	return s
}

// Sharded reports whether sharded execution is enabled.
func (s *System) Sharded() bool { return s.root().eng != nil }

// DomainView returns the System facade owning the given domain's events:
// components constructed against it schedule and read time on that domain's
// shard. Without sharding (or for domains fused onto the primary shard) it
// returns the root System itself. Views share the root's object registry,
// statistics, RNG, and tracer identity.
func (s *System) DomainView(d Domain) *System {
	r := s.root()
	if r.eng == nil {
		return r
	}
	return r.eng.views[r.eng.layout[d]]
}

// serviceOneCatching fires one event, translating RequestExit panics into a
// clean stop. Returns true when the run should stop.
func (s *System) serviceOneCatching(res *RunResult) (stop bool) {
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
	s.tracer.Call(s.fnDispatch)
	s.queue.ServiceOne()
	return false
}
