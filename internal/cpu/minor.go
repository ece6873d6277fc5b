package cpu

import (
	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// The in-order pipeline's geometry, gem5's MinorCPU defaults: 2-wide with a
// 4-stage front end.
const (
	minorFetchBytes        = 64 // width of one instruction-cache fetch
	minorIssueWidth        = 2  // instructions issued per cycle at most
	minorBufferDepth       = 16 // bound of the decoded-instruction queue
	minorMispredictPenalty = 4  // redirect bubble in cycles
)

// MinorCPU is the in-order pipelined model: strict in-order issue, a
// scoreboard for register hazards, branch prediction with redirect
// penalties, and timing memory accesses.
type MinorCPU struct {
	frontEnd

	regReadyAt [isa.NumArchRegs]sim.Tick
	// loadDone[d] completes a load into register d, and
	// loadDone[isa.NumArchRegs] one with no destination: the register is
	// all a completion needs, so each is bound once, not made per load.
	loadDone [isa.NumArchRegs + 1]func()

	// Host-model stage functions beyond the common core set.
	fnIssue sim.FuncID
	fnLSQ   sim.FuncID

	numCycles   *sim.Counter
	fetchStalls *sim.Counter
	issueStalls *sim.Counter
}

// NewMinorCPU builds a Minor in-order CPU.
func NewMinorCPU(sys *sim.System, cfg Config) *MinorCPU {
	c := &MinorCPU{}
	core := newCore(sys, minorCode, cfg)
	bp := NewTournamentBP(sys.Stats(), cfg.Name)
	tr := sys.Tracer()
	fetch2 := tr.RegisterFunc("MinorCPU::Fetch2::evaluate", 4200, sim.FuncVirtual|sim.FuncPoly)
	c.fnIssue = tr.RegisterFunc("MinorCPU::Execute::issue", 5100, sim.FuncVirtual|sim.FuncPoly)
	c.fnLSQ = tr.RegisterFunc("MinorCPU::LSQ::pushRequest", 3600, sim.FuncVirtual|sim.FuncPoly)
	st := sys.Stats()
	c.numCycles = st.Counter(cfg.Name+".numCycles", "pipeline cycles evaluated")
	c.fetchStalls = st.Counter(cfg.Name+".fetchStallCycles", "cycles with an empty decode buffer")
	c.issueStalls = st.Counter(cfg.Name+".issueStallCycles", "cycles blocked on hazards")
	c.init(frontEnd{
		core:       core,
		bp:         bp,
		tick:       sim.NewEventPrio(cfg.Name+".tick", c.fnIssue, sim.PrioCPUTick, c.evaluate),
		fetchBytes: minorFetchBytes,
		depth:      minorBufferDepth,
		penalty:    minorMispredictPenalty * ClockPeriod,
		perInst:    fetch2,
		rearm:      true,
		squashes:   st.Counter(cfg.Name+".squashes", "pipeline squashes (mispredicts + traps)"),
	})
	for d := range isa.NumArchRegs {
		c.loadDone[d] = func() {
			c.regReadyAt[d] = c.core.sys.Now()
			c.schedule()
		}
	}
	c.loadDone[isa.NumArchRegs] = c.schedule
	sys.Register(c)
	return c
}

// evaluate advances the whole pipeline by one cycle.
func (c *MinorCPU) evaluate() {
	core := c.core
	if core.halted {
		return
	}
	c.numCycles.Inc()
	now := core.sys.Now()

	if core.waiting {
		return // WFI: wakeup() re-arms
	}
	if core.takeInterruptIfPending() {
		c.squash(core.pc, 0)
	}

	// Execute stage: in-order issue of up to IssueWidth ready instructions.
	issued := 0
	blockedUntil := sim.Tick(0)
	for issued < minorIssueWidth && now >= c.stallUntil && len(c.buffer) > 0 {
		mi := c.buffer[0]
		if mi.pc != core.pc {
			// Stale wrong-path instruction (post-redirect); drop it.
			c.buffer = c.buffer[1:]
			continue
		}
		if ready := c.srcsReadyAt(mi.in); ready > now {
			c.issueStalls.Inc()
			blockedUntil = ready
			break
		}
		core.sys.TraceCall(c.fnIssue)
		c.buffer = c.buffer[1:]
		if !c.issueOne(mi, now) {
			return // fault ended the simulation
		}
		issued++
		if core.halted || core.waiting {
			return
		}
		now = core.sys.Now()
	}
	if len(c.buffer) == 0 && !c.fetchBusy {
		c.fetchStalls.Inc()
	}

	// Fetch stage: keep the decode buffer full.
	c.tryFetch()

	// Re-arm policy: avoid spinning while blocked on memory responses (the
	// response callbacks re-arm the pipeline).
	switch {
	case len(c.buffer) > 0 && blockedUntil == sim.MaxTick:
		// Head blocked on an outstanding load; its callback schedules.
	case len(c.buffer) > 0 && blockedUntil > now:
		c.scheduleAt(blockedUntil)
	case len(c.buffer) > 0:
		c.schedule()
	case c.fetchBusy:
		// Fetch response callback schedules.
	default:
		if !c.tick.Scheduled() && c.fetchPC != 0 {
			c.schedule()
		}
	}
}

// srcsReadyAt returns the tick at which every source register is available.
func (c *MinorCPU) srcsReadyAt(in isa.Inst) sim.Tick {
	var buf [3]isa.RegID
	ready := sim.Tick(0)
	for _, r := range in.Srcs(buf[:0]) {
		if c.regReadyAt[r] > ready {
			ready = c.regReadyAt[r]
		}
	}
	return ready
}

// fuLatency returns the functional-unit latency in cycles for a class.
func fuLatency(cl isa.Class) int {
	switch cl {
	case isa.ClassIntMult:
		return 3
	case isa.ClassIntDiv:
		return 12
	case isa.ClassFloatAdd:
		return 3
	case isa.ClassFloatMult:
		return 4
	case isa.ClassFloatDiv:
		return 12
	case isa.ClassFloatSqrt:
		return 16
	case isa.ClassFloatCvt:
		return 2
	default:
		return 1
	}
}

// issueOne architecturally executes one instruction and models its latency.
// It returns false if the simulation was terminated by a fault.
func (c *MinorCPU) issueOne(mi decodedInst, now sim.Tick) bool {
	core := c.core
	in := mi.in
	pc := mi.pc
	out, err := core.execute(in)
	if err != nil {
		core.sys.RequestExit(err.Error(), 255)
		return false
	}
	if core.pc == pc {
		core.pc = out.NextPC(pc)
	} else {
		// A trap or environment call redirected the stream.
		c.squash(core.pc, 0)
	}

	// Register result latency.
	if d := in.Dest(); d != isa.InvalidReg {
		c.regReadyAt[d] = now + sim.Tick(fuLatency(in.Class()))*ClockPeriod
	}

	// Memory timing.
	if out.HasMem {
		core.sys.TraceCall(c.fnLSQ)
		acc := mem.Access{Addr: out.MemAddr, Size: uint8(in.MemSize()), Write: in.IsStore()}
		if in.IsLoad() {
			done := c.loadDone[isa.NumArchRegs]
			if d := in.Dest(); d != isa.InvalidReg {
				c.regReadyAt[d] = sim.MaxTick // unknown until response
				done = c.loadDone[d]
			}
			core.cfg.DPort.SendTiming(acc, done)
		} else {
			core.cfg.DPort.SendTiming(acc, nil) // stores drain via the cache
		}
	}

	// Control flow: resolve against the fetch-time prediction.
	if in.IsControl() {
		realNext := out.NextPC(pc)
		c.bp.Update(pc, in, out.ControlTaken, out.ControlTarget)
		if mi.predNext != realNext {
			c.bp.RecordMispredict()
			c.squash(realNext, 0)
		}
	}
	return true
}
