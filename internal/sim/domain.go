package sim

import "fmt"

// Domain classifies SimObjects (and the events they schedule) into the
// coarse simulation domains sharded execution distinguishes: the CPU complex
// (cores, caches, TLBs, syscall emulation), the memory system behind the
// shared bus (DRAM), and platform devices.
//
// Domains exist independently of sharding: every event carries one, and the
// tag is inert (all events share the single queue) until EnableSharding puts
// DomainMem on a queue of its own.
type Domain uint8

// Simulation domains.
const (
	// DomainCPU covers the CPU cores and everything they call
	// synchronously: caches, TLBs, the directory, the bus front end, and OS
	// emulation. Guest cores couple at zero latency (threading syscalls and
	// directory invalidations mutate a sibling core directly), so all of
	// them share this domain.
	DomainCPU Domain = iota
	// DomainMem covers DRAM behind the shared memory bus — the only
	// components separated from the CPU complex by a latency large enough
	// to make a conservative quantum barrier worthwhile.
	DomainMem
	// DomainDev covers platform devices (UART, timer). Devices interact
	// with the CPUs at zero latency (MMIO, interrupt wires), so they share
	// DomainCPU's shard.
	DomainDev
)

func (d Domain) String() string {
	switch d {
	case DomainCPU:
		return "cpu"
	case DomainMem:
		return "mem"
	case DomainDev:
		return "dev"
	}
	return fmt.Sprintf("Domain(%d)", uint8(d))
}

// The two shards of sharded execution: everything but DRAM executes on the
// goroutine that calls Run, DRAM on a worker goroutine.
const (
	shardCPU = 0
	shardMem = 1
)

// shardNames renders the shards in messages.
var shardNames = [2]string{"cpu+dev", "mem"}

// shardOf maps a domain to its shard.
func shardOf(d Domain) int {
	if d == DomainMem {
		return shardMem
	}
	return shardCPU
}

// QuantumFor derives a conservative barrier floor from the minimum latency
// of a cross-shard event path: the smallest delta, in ticks, at which any
// event fired on one shard may schedule an event onto the other. For the
// memory→CPU direction this is the DRAM row-hit latency — every DRAM
// response is scheduled at least a row hit (plus transfer) in the future.
// The engine lets the CPU shard run up to Quantum ticks past the memory
// shard's earliest pending event, which is safe exactly because no
// memory-side event can make anything happen sooner than that. Cross-shard
// posts below a floor panic at post time, so a config whose real latencies
// violate the derivation fails loudly instead of diverging. It panics on
// zero: a zero quantum would serialize the shards tick by tick and indicates
// a broken derivation.
func QuantumFor(minCrossLatency Tick) Tick {
	if minCrossLatency == 0 {
		panic("sim: QuantumFor(0): quantum must derive from a nonzero cross-domain latency")
	}
	return minCrossLatency
}

// ShardConfig configures sharded execution of one System (see
// System.EnableSharding).
type ShardConfig struct {
	// Quantum is the mem→cpu floor: the minimum delta, in ticks, at which a
	// memory-side event may schedule back onto the CPU shard, derived with
	// QuantumFor from the DRAM row-hit latency. Required.
	Quantum Tick
	// BusLookahead is the cpu→mem floor: the minimum delta at which any
	// CPU-side event may schedule an event onto the memory shard — the bus
	// forward latency in the classic hierarchy, derived with QuantumFor.
	// Zero leaves the edge unfloored (always safe, merely conservative: the
	// engine then never extends a memory window past the CPU side's next
	// pending event). Posts below a nonzero floor panic at post time naming
	// the edge.
	BusLookahead Tick
	// NewQueue builds the memory shard's event queue; it should match the
	// primary queue's backend (heap or calendar). Nil means a heap queue.
	NewQueue func() Queue
}
