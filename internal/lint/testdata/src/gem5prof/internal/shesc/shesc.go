// Package shesc exercises the shardescape analyzer: mutable state
// reachable from more than one shard domain without passing through the
// System mailbox. Domain roots come from EventDomain tags and
// DomainView calls, exactly as in the real engine.
package shesc

import "gem5prof/internal/sim"

// lastAddr is coordinator-visible package state.
var lastAddr uint64

// DRAM lives on the memory shard.
type DRAM struct{ rows int }

// EventDomain announces DRAM's shard side.
func (d *DRAM) EventDomain() sim.Domain { return sim.DomainMem }

// Tick runs on the mem worker; writing package state from it races
// every coordinator-side reader.
func (d *DRAM) Tick(addr uint64) {
	lastAddr = addr // want "mem-side method writes package-level lastAddr"
}

// Respond posts its completion through the mailbox, but the mem-side
// method still writes package state on its own goroutine before posting.
func (d *DRAM) Respond(s *sim.System, addr uint64, lat sim.Tick) {
	lastAddr = addr // want "mem-side method writes package-level lastAddr"
	s.OneShot("dram.resp", 0, sim.DomainCPU, lat, func() {})
}

// Core is coordinator-side.
type Core struct{ issued int }

// EventDomain announces Core's shard side.
func (c *Core) EventDomain() sim.Domain { return sim.DomainCPU }

// Fetch calls straight across the shard boundary.
func (c *Core) Fetch(d *DRAM, addr uint64) {
	d.Tick(addr) // want "direct call of DRAM.Tick"
}

// route binds views of both sides to one variable.
func route(s *sim.System, useMem bool) *sim.System {
	v := s.DomainView(sim.DomainCPU)
	if useMem {
		v = s.DomainView(sim.DomainMem) // want "v is reachable from both the mem shard and a coordinator-side domain"
	}
	return v
}
