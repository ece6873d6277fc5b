// Fixtures for the shardpost analyzer: direct queue-backend scheduling
// (rule 1) and EnableSharding quanta without QuantumFor provenance (rule 2).
package sp

import "gem5prof/internal/sim"

type rig struct {
	cfg sim.ShardConfig
}

// GoodSystemPost schedules through the System: routed per domain.
func GoodSystemPost(sys *sim.System, e *sim.Event) {
	sys.Schedule(e, 100)
	sys.Reschedule(e, 200)
}

// GoodOneShot posts over the cpu-to-mem edge with the configured bus
// latency as its delay; a constant delay is fine on an edge with no floor.
func GoodOneShot(sys *sim.System, busLat sim.Tick, fire func()) {
	sys.OneShot("bus.fwd", 0, sim.DomainMem, busLat+64, fire)
	sys.OneShot("l1.hit", 0, sim.DomainCPU, 2000, fire)
}

// BadOneShot hardcodes the delay of a post to the memory shard: it cannot
// follow the latency the edge's BusLookahead floor is derived from.
func BadOneShot(sys *sim.System, fire func()) {
	sys.OneShot("bus.fwd", 0, sim.DomainMem, 2000, fire) // want `OneShot to DomainMem crosses the cpu-to-mem edge with a constant delay`
}

// BadQueuePost schedules directly on the backend, skipping mailbox routing.
func BadQueuePost(sys *sim.System, e *sim.Event) {
	sys.Queue().Schedule(e, 100) // want `bypasses the System's cross-shard mailbox routing`
}

// BadConcretePost hits a concrete backend type.
func BadConcretePost(q *sim.HeapQueue, cq *sim.CalendarQueue, e *sim.Event) {
	q.Schedule(e, 5)    // want `bypasses the System's cross-shard mailbox routing`
	cq.Reschedule(e, 7) // want `bypasses the System's cross-shard mailbox routing`
}

// AllowedQueuePost waives a direct insert with an annotation.
func AllowedQueuePost(q sim.Queue, e *sim.Event) {
	//lint:allow shardpost single-shard replay harness owns the whole queue
	q.Schedule(e, 5)
}

// GoodQuantumLiteral derives the quantum at the call site.
func GoodQuantumLiteral(sys *sim.System, rowHit sim.Tick) {
	sys.EnableSharding(sim.ShardConfig{Quantum: sim.QuantumFor(rowHit)})
}

// GoodQuantumLocal derives a local first.
func GoodQuantumLocal(sys *sim.System, rowHit sim.Tick) {
	q := sim.QuantumFor(rowHit)
	sys.EnableSharding(sim.ShardConfig{Quantum: q})
}

// GoodQuantumParam forwards the obligation to the caller.
func GoodQuantumParam(sys *sim.System, quantum sim.Tick) {
	sys.EnableSharding(sim.ShardConfig{Quantum: quantum})
}

// GoodConfigParam delegates the whole config.
func GoodConfigParam(sys *sim.System, cfg sim.ShardConfig) {
	sys.EnableSharding(cfg)
}

// GoodConfigVar builds a local config with a derived quantum.
func GoodConfigVar(sys *sim.System, rowHit sim.Tick) {
	cfg := sim.ShardConfig{Quantum: sim.QuantumFor(rowHit)}
	sys.EnableSharding(cfg)
}

// GoodFieldWrite assigns the quantum field from QuantumFor.
func GoodFieldWrite(sys *sim.System, rowHit sim.Tick) {
	var cfg sim.ShardConfig
	cfg = sim.ShardConfig{}
	cfg.Quantum = sim.QuantumFor(rowHit)
	sys.EnableSharding(cfg)
}

// BadQuantumLiteral hardcodes a raw tick count.
func BadQuantumLiteral(sys *sim.System) {
	sys.EnableSharding(sim.ShardConfig{Quantum: 15000}) // want `not provably derived from sim.QuantumFor`
}

// BadQuantumLocal launders the raw constant through a local.
func BadQuantumLocal(sys *sim.System) {
	q := sim.Tick(15000)
	sys.EnableSharding(sim.ShardConfig{Quantum: q}) // want `not provably derived from sim.QuantumFor`
}

// BadConfigVar builds a local config with a raw quantum.
func BadConfigVar(sys *sim.System) {
	cfg := sim.ShardConfig{Quantum: 15000} // want `not provably derived from sim.QuantumFor`
	sys.EnableSharding(cfg)
}

// BadFieldWrite overwrites a derived quantum with a raw one.
func BadFieldWrite(sys *sim.System, rowHit sim.Tick) {
	cfg := sim.ShardConfig{Quantum: sim.QuantumFor(rowHit)}
	cfg.Quantum = 15000 // want `not provably derived from sim.QuantumFor`
	sys.EnableSharding(cfg)
}

// BadOpaqueConfig pulls the config from a struct field: provenance invisible.
func BadOpaqueConfig(sys *sim.System, r *rig) {
	cfg := r.cfg
	sys.EnableSharding(cfg) // want `Quantum is not visible in this function`
}

// AllowedQuantum waives a raw quantum with an annotation.
func AllowedQuantum(sys *sim.System) {
	//lint:allow shardpost barrier safety proven offline for this fixed config
	sys.EnableSharding(sim.ShardConfig{Quantum: 15000})
}

// GoodBusLookahead derives both floors at the call site.
func GoodBusLookahead(sys *sim.System, rowHit, busLat sim.Tick) {
	sys.EnableSharding(sim.ShardConfig{
		Quantum:      sim.QuantumFor(rowHit),
		BusLookahead: sim.QuantumFor(busLat),
	})
}

// GoodBusLookaheadZero leaves the cpu-to-mem edge unfloored via the
// conditional sim.Tick(0) idiom: a zero floor grants nothing, always safe.
func GoodBusLookaheadZero(sys *sim.System, rowHit, busLat sim.Tick) {
	look := sim.Tick(0)
	if busLat > 0 {
		look = sim.QuantumFor(busLat)
	}
	sys.EnableSharding(sim.ShardConfig{
		Quantum:      sim.QuantumFor(rowHit),
		BusLookahead: look,
	})
}

// BadBusLookahead hardcodes a raw cpu-to-mem floor.
func BadBusLookahead(sys *sim.System, rowHit sim.Tick) {
	sys.EnableSharding(sim.ShardConfig{
		Quantum:      sim.QuantumFor(rowHit),
		BusLookahead: 2000, // want `BusLookahead is not provably derived from sim.QuantumFor`
	})
}

// BadBusLookaheadWrite overwrites a derived floor with a raw one.
func BadBusLookaheadWrite(sys *sim.System, rowHit, busLat sim.Tick) {
	cfg := sim.ShardConfig{Quantum: sim.QuantumFor(rowHit)}
	cfg.BusLookahead = 2000 // want `BusLookahead is not provably derived from sim.QuantumFor`
	sys.EnableSharding(cfg)
}

// BadClosurePost hides the backend post inside a returned callback.
func BadClosurePost(sys *sim.System, e *sim.Event) func() {
	return func() {
		sys.Queue().Schedule(e, 100) // want `bypasses the System's cross-shard mailbox routing`
	}
}

// BadMethodValue captures the backend's Schedule as a callback value:
// every later invocation bypasses the mailbox.
func BadMethodValue(q *sim.HeapQueue) func(*sim.Event, sim.Tick) {
	return q.Schedule // want `capturing Schedule of a sim queue backend as a method value`
}

// GoodMethodValue captures the System's method: still mailbox-routed.
func GoodMethodValue(sys *sim.System) func(*sim.Event, sim.Tick) {
	return sys.Schedule
}

// AllowedMethodValue waives a backend capture with an annotation.
func AllowedMethodValue(q *sim.HeapQueue) func(*sim.Event, sim.Tick) {
	//lint:allow shardpost replay harness owns the whole queue
	return q.Schedule
}

// hook is a package-level callback: rule 1 must reach initializer
// closures that belong to no FuncDecl.
var hook = func(q *sim.CalendarQueue, e *sim.Event) {
	q.Schedule(e, 9) // want `bypasses the System's cross-shard mailbox routing`
}

// GoodClosureQuantum delegates the floor to the closure's own parameter:
// the obligation moves to whoever invokes the callback.
func GoodClosureQuantum(sys *sim.System) func(sim.Tick) {
	return func(quantum sim.Tick) {
		sys.EnableSharding(sim.ShardConfig{Quantum: quantum})
	}
}

// BadClosureQuantum hardcodes the floor inside the callback.
func BadClosureQuantum(sys *sim.System) func() {
	return func() {
		sys.EnableSharding(sim.ShardConfig{Quantum: 4096}) // want `not provably derived from sim.QuantumFor`
	}
}

// GoodClosureQuantumLocal derives a local inside the closure.
func GoodClosureQuantumLocal(sys *sim.System, rowHit sim.Tick) func() {
	return func() {
		q := sim.QuantumFor(rowHit)
		sys.EnableSharding(sim.ShardConfig{Quantum: q})
	}
}
