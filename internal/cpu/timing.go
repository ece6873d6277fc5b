package cpu

import (
	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// TimingCPU is the TimingSimpleCPU model: CPI = 1 plus real memory timing.
// Every instruction fetch and data access travels through the timing memory
// system; the CPU blocks on each access like gem5's TimingSimpleCPU.
type TimingCPU struct {
	core *Core

	fetchEv *sim.Event

	// The CPU blocks on each access, so one is in flight at most: its send
	// time and the fetched pc live here, and the completion callbacks are
	// method values bound once rather than a closure per access.
	sent      sim.Tick
	fetchPC   uint32
	fetchDone func()
	dataDone  func()

	numCycles  *sim.Counter
	fetchStall *sim.Counter
	dataStall  *sim.Counter
}

// NewTimingCPU builds a TimingSimpleCPU.
func NewTimingCPU(sys *sim.System, cfg Config) *TimingCPU {
	c := &TimingCPU{core: newCore(sys, timingCode, cfg)}
	st := sys.Stats()
	c.numCycles = st.Counter(cfg.Name+".numCycles", "active guest cycles")
	c.fetchStall = st.Counter(cfg.Name+".icacheStallTicks", "ticks stalled on instruction fetch")
	c.dataStall = st.Counter(cfg.Name+".dcacheStallTicks", "ticks stalled on data access")
	c.fetchEv = sim.NewEventPrio(cfg.Name+".fetch", c.core.fnFetch, sim.PrioCPUTick, c.startFetch)
	c.fetchDone, c.dataDone = c.completeFetch, c.completeData
	c.core.wakeup = func() {
		// The fetch may still be queued: a core parked at build time keeps
		// its Start event until it first fires, and a spawn can unpark it
		// within the spawner's same-tick batch.
		if !c.fetchEv.Scheduled() {
			sys.ScheduleIn(c.fetchEv, ClockPeriod)
		}
	}
	sys.Register(c)
	return c
}

// Name implements sim.SimObject.
func (c *TimingCPU) Name() string { return c.core.name }

// Core implements CPU.
func (c *TimingCPU) Core() *Core { return c.core }

// IPC implements CPU: instructions per elapsed cycle including stalls.
func (c *TimingCPU) IPC() float64 { return c.core.cycleIPC() }

// Start implements CPU.
func (c *TimingCPU) Start(entry uint32) {
	c.core.pc = entry
	c.core.sys.Schedule(c.fetchEv, c.core.sys.Now())
}

// startFetch begins one instruction: interrupt check, then a timing fetch.
func (c *TimingCPU) startFetch() {
	core := c.core
	if core.halted {
		return
	}
	core.takeInterruptIfPending()
	if core.waiting {
		return
	}
	core.sys.TraceCall(core.fnFetch)
	c.sent, c.fetchPC = core.sys.Now(), core.pc
	core.cfg.IPort.SendTiming(mem.Access{Addr: c.fetchPC, Size: isa.InstBytes, Inst: true}, c.fetchDone)
}

// completeFetch decodes and executes after the icache responds.
func (c *TimingCPU) completeFetch() {
	core, pc := c.core, c.fetchPC
	c.fetchStall.Addn(uint64(core.sys.Now() - c.sent))
	if core.halted {
		return
	}
	w, err := core.fetchWord(pc)
	if err != nil {
		core.sys.RequestExit(err.Error(), 255)
	}
	in := core.decode(pc, w)
	out, err := core.execute(*in)
	if err != nil {
		core.sys.RequestExit(err.Error(), 255)
	}
	c.numCycles.Inc()
	if core.pc == pc {
		core.pc = out.NextPC(pc)
	}
	if out.HasMem {
		// The architectural access already happened in execute; model the
		// timing by blocking until the data port responds.
		c.sent = core.sys.Now()
		core.cfg.DPort.SendTiming(mem.Access{
			Addr: out.MemAddr, Size: uint8(in.MemSize()), Write: in.IsStore(),
		}, c.dataDone)
		return
	}
	c.instDone()
}

// completeData ends the instruction after the dcache responds.
func (c *TimingCPU) completeData() {
	c.dataStall.Addn(uint64(c.core.sys.Now() - c.sent))
	c.instDone()
}

// instDone schedules the next fetch one cycle later.
func (c *TimingCPU) instDone() {
	core := c.core
	if core.halted || core.waiting {
		return
	}
	core.sys.ScheduleIn(c.fetchEv, ClockPeriod)
}
