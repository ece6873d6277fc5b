// Package mem implements the guest memory system's timing model: classic
// set-associative caches with MSHRs and write-back policy, a shared bus, and
// a DRAM controller with an open-row model.
//
// Following the design split described in DESIGN.md, data moves functionally
// through guest.Memory at execute time; this package models only *when*
// accesses complete. Timing requests carry no data.
package mem

import "gem5prof/internal/sim"

// Access describes one memory-system request.
type Access struct {
	// Addr is the guest physical byte address.
	Addr uint32
	// Size is the access size in bytes.
	Size uint8
	// Write is true for stores and writebacks.
	Write bool
	// Inst is true for instruction fetches.
	Inst bool
	// Excl marks a miss fetch that carries write intent: the requester
	// wants the block in an exclusive (writable) state. Only a coherence
	// directory interprets it; plain hierarchy levels ignore the flag.
	Excl bool
}

// Port is one level of the timing memory hierarchy.
type Port interface {
	// SendTiming initiates the access. done is invoked (via a scheduled
	// event) when the access completes; it may be nil for fire-and-forget
	// traffic such as writebacks.
	SendTiming(acc Access, done func())
	// AtomicLatency performs the access in atomic mode: state (tags, rows)
	// is updated immediately and the total latency is returned.
	AtomicLatency(acc Access) sim.Tick
}

// blockAlign returns addr rounded down to a multiple of block.
func blockAlign(addr uint32, block uint32) uint32 { return addr &^ (block - 1) }
