package cpu

import (
	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// AtomicCPU is the AtomicSimpleCPU model: CPI = 1, memory accesses complete
// atomically with no contention or queuing. Caches are still exercised
// atomically so that tag state and statistics stay warm, matching gem5.
type AtomicCPU struct {
	core *Core
	tick *sim.Event

	// batch bounds instructions executed per event, trading event-queue
	// pressure against interrupt latency.
	batch int

	numCycles *sim.Counter
}

// NewAtomicCPU builds an AtomicSimpleCPU.
func NewAtomicCPU(sys *sim.System, cfg Config) *AtomicCPU {
	c := &AtomicCPU{core: newCore(sys, atomicCode, cfg), batch: 64}
	c.numCycles = sys.Stats().Counter(cfg.Name+".numCycles", "guest cycles simulated")
	c.tick = sim.NewEventPrio(cfg.Name+".tick", c.core.fnFetch, sim.PrioCPUTick, c.doTick)
	c.core.wakeup = func() {
		// The tick may still be queued: a core parked at build time keeps
		// its Start event until it first fires, and a spawn can unpark it
		// within the spawner's same-tick batch.
		if !c.tick.Scheduled() {
			sys.ScheduleIn(c.tick, c.core.clock)
		}
	}
	sys.Register(c)
	return c
}

// Name implements sim.SimObject.
func (c *AtomicCPU) Name() string { return c.core.name }

// Core implements CPU.
func (c *AtomicCPU) Core() *Core { return c.core }

// IPC implements CPU. AtomicSimpleCPU retires one instruction per cycle.
func (c *AtomicCPU) IPC() float64 {
	if c.numCycles.Count() == 0 {
		return 0
	}
	return float64(c.core.numInsts.Count()) / float64(c.numCycles.Count())
}

// Start implements CPU.
func (c *AtomicCPU) Start(entry uint32) {
	c.core.pc = entry
	c.core.sys.Schedule(c.tick, c.core.sys.Now())
}

func (c *AtomicCPU) doTick() {
	core := c.core
	for i := 0; i < c.batch; i++ {
		if core.halted {
			return
		}
		if core.takeInterruptIfPending() {
			// Redirect applied; keep executing from the vector.
			continue
		}
		if core.waiting {
			return // parked until RaiseInterrupt reschedules
		}
		pc := core.pc
		// Exercise the instruction port atomically (tag warming + stats);
		// the returned latency is deliberately ignored: CPI stays 1.
		core.sys.TraceCall(core.fnFetch)
		core.cfg.IPort.AtomicLatency(mem.Access{Addr: pc, Size: isa.InstBytes, Inst: true})
		w, err := core.fetchWord(pc)
		if err != nil {
			core.sys.RequestExit(err.Error(), 255)
		}
		in := core.decode(pc, w)
		out, err := core.execute(*in)
		if err != nil {
			core.sys.RequestExit(err.Error(), 255)
		}
		if out.HasMem {
			core.cfg.DPort.AtomicLatency(mem.Access{
				Addr: out.MemAddr, Size: uint8(in.MemSize()), Write: in.IsStore(),
			})
		}
		c.numCycles.Inc()
		if core.pc == pc {
			// Only advance when the instruction did not redirect the PC
			// itself (traps/syscalls may have).
			core.pc = out.NextPC(pc)
		}
		if core.halted {
			return
		}
	}
	core.sys.ScheduleIn(c.tick, sim.Tick(c.batch)*core.clock)
}
