// Package shescneg is shesc's negative twin: the same topology with
// every crossing routed through the System mailbox, plus same-side
// interactions that must not be mistaken for escapes.
package shescneg

import "gem5prof/internal/sim"

// DRAM lives on the memory shard.
type DRAM struct {
	rows int
	done *sim.Event
}

// EventDomain announces DRAM's shard side.
func (d *DRAM) EventDomain() sim.Domain { return sim.DomainMem }

// Tick mutates only mem-side state and posts completion through the
// mailbox — the sanctioned crossing.
func (d *DRAM) Tick(s *sim.System, when sim.Tick) {
	d.rows++
	s.Schedule(d.done, when)
}

// Respond posts the completion as a one-shot: the callback runs on the
// coordinator's shard, so what it captures crosses through the mailbox too.
func (d *DRAM) Respond(s *sim.System, c *Core, lat sim.Tick) {
	d.rows++
	s.OneShot("dram.resp", 0, sim.DomainCPU, lat, func() { c.issued++ })
}

// Core is coordinator-side.
type Core struct{ issued int }

// EventDomain announces Core's shard side.
func (c *Core) EventDomain() sim.Domain { return sim.DomainCPU }

// Decoder shares Core's side; calling it directly is fine.
type Decoder struct{ width int }

// EventDomain announces Decoder's shard side.
func (dec *Decoder) EventDomain() sim.Domain { return sim.DomainCPU }

// Decode is a same-side helper call.
func (dec *Decoder) Decode(x uint64) uint64 { return x >> uint(dec.width) }

// Issue posts the memory request through the mailbox instead of
// touching DRAM directly.
func (c *Core) Issue(s *sim.System, dec *Decoder, req *sim.Event, addr uint64) {
	c.issued++
	_ = dec.Decode(addr)
	s.Schedule(req, sim.Tick(addr))
}

// forward is the bus: built on the coordinator's view, it posts one-shots
// addressed to the mem domain. OneShot holds on to the domain it is given,
// but it is the mailbox: the view posted through does not thereby become
// reachable from the mem shard.
func forward(s *sim.System, lat sim.Tick, fire func()) {
	cpu := s.DomainView(sim.DomainCPU)
	cpu.OneShot("bus.fwd", 0, sim.DomainMem, lat, fire)
}

// coordinator views on separate variables never join domains.
func split(s *sim.System) (*sim.System, *sim.System) {
	cpu := s.DomainView(sim.DomainCPU)
	dev := s.DomainView(sim.DomainDev)
	return cpu, dev
}
