// Package cpu implements the g5 guest CPU models profiled by the paper:
// AtomicSimpleCPU, TimingSimpleCPU, the Minor in-order pipeline, and the O3
// out-of-order core, together with the branch predictors they share.
//
// All models retire bit-identical architectural results because they share
// the isa package's executor. The models differ in how they account guest
// time and — critically for the reproduced paper — in how much *host-side*
// work (functions touched, data structures walked) each simulated
// instruction generates.
package cpu

import (
	"fmt"
	"io"

	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// FuncMem is the functional memory interface a core executes against. It is
// implemented by guest.Memory and by sysemu's MMIO-aware wrapper.
type FuncMem interface {
	Read(addr uint32, size int) (uint64, error)
	Write(addr uint32, size int, v uint64) error
	// HostAddr translates a guest address into the synthetic host address of
	// its backing storage, for the host data-traffic model.
	HostAddr(addr uint32) uint64
}

// Env handles environment interactions of a core: system calls in SE mode,
// traps in FS mode, and breakpoints.
type Env interface {
	// Ecall services an environment call. The handler reads and writes the
	// core's registers and may halt the core or redirect its PC.
	Ecall(c *Core)
	// Ebreak services a breakpoint; bare-metal programs use it to exit.
	Ebreak(c *Core)
}

// Machine CSR numbers implemented by the cores.
const (
	CSRMStatus  = 0x300
	CSRMTVec    = 0x305
	CSRMEPC     = 0x341
	CSRMCause   = 0x342
	CSRMScratch = 0x340
	CSRCycle    = 0xC00
	CSRInstret  = 0xC02
	CSRHartID   = 0xF14
)

// MStatusMIE is the machine-interrupt-enable bit in mstatus.
const MStatusMIE = 1 << 3

// Trap causes written to mcause.
const (
	CauseEcall          = 11
	CauseTimerInterrupt = 0x8000_0007
	CauseExternalIntr   = 0x8000_000B
)

// ClockPeriod is every guest core's clock period: 1 GHz.
const ClockPeriod = sim.Nanosecond

// Config carries the construction parameters shared by all CPU models.
type Config struct {
	Name string
	// Mem is the functional memory (possibly MMIO-wrapped).
	Mem FuncMem
	// Env handles ecall/ebreak. Required.
	Env Env
	// IPort and DPort are the timing/atomic memory ports. A nil port is
	// replaced by an ideal single-cycle memory.
	IPort mem.Port
	DPort mem.Port
	// HartID distinguishes cores in a multi-core guest.
	HartID uint32
	// ExecTrace, when non-nil, receives one line per committed instruction
	// (gem5's --debug-flags=Exec).
	ExecTrace io.Writer
	// Decoded, when non-nil, is the loaded program decoded once: a fetched
	// word equal to the image's word at its pc is not decoded again.
	Decoded *isa.Decoded
}

func (c *Config) fill(sys *sim.System) {
	if c.Name == "" {
		panic("cpu: config needs a name")
	}
	if c.Mem == nil {
		panic("cpu: config needs functional memory")
	}
	if c.Env == nil {
		panic("cpu: config needs an environment")
	}
	if c.IPort == nil {
		c.IPort = IdealPort{Sys: sys, Latency: ClockPeriod}
	}
	if c.DPort == nil {
		c.DPort = IdealPort{Sys: sys, Latency: ClockPeriod}
	}
}

// IdealPort is a perfect memory port with a fixed latency.
type IdealPort struct {
	Sys     *sim.System
	Latency sim.Tick
}

// SendTiming implements mem.Port.
func (p IdealPort) SendTiming(acc mem.Access, done func()) {
	if done != nil {
		p.Sys.OneShot("ideal.resp", 0, p.Latency, done)
	}
}

// AtomicLatency implements mem.Port.
func (p IdealPort) AtomicLatency(acc mem.Access) sim.Tick { return p.Latency }

// Core is the architectural state and bookkeeping shared by all CPU models.
// It implements isa.Context.
type Core struct {
	name string
	sys  *sim.System
	cfg  Config
	fmem FuncMem
	env  Env

	regs isa.Regs
	pc   uint32
	csrs map[uint32]uint32

	halted     bool
	intPending bool
	waiting    bool // parked in WFI
	wakeup     func()
	// redirect, when set, tells a buffered-frontend model (Minor, O3)
	// that a parked core's architectural PC moved, so stale fetch state
	// must be squashed before the core resumes. Only fired by SetPC
	// while the core is parked: a running core's redirects are already
	// handled by the models' own pc-mismatch checks, and adding a squash
	// there would change single-core statistics.
	redirect func(pc uint32)

	// Statistics common to every model.
	numInsts    *sim.Counter
	numBranches *sim.Counter
	numLoads    *sim.Counter
	numStores   *sim.Counter
	numEcalls   *sim.Counter

	// Host-model function attribution.
	fnFetch   sim.FuncID
	fnDecode  sim.FuncID
	fnAdvance sim.FuncID
	fnExec    [12]sim.FuncID // indexed by isa.Class
	fnTrap    sim.FuncID

	decodeMiss isa.Inst // what decode returns when the image does not hold the word

	// libFns is the model's long tail of cold simulator code (stat
	// callbacks, decode tables, SimObject plumbing); one is touched every
	// libStride instructions, reproducing gem5's flat hot-function CDF: at
	// each instruction whose committed count is a multiple of libStride,
	// which libDue counts down to instead of dividing.
	libFns    []sim.FuncID
	libRotor  int
	libStride uint64
	libDue    uint64

	// commitHook, when non-nil, observes every architecturally committed
	// instruction. The conformance subsystem uses it for lockstep trace
	// hashing and first-divergence capture.
	commitHook func(pc uint32, in isa.Inst)
}

func newCore(sys *sim.System, code hostCode, cfg Config) *Core {
	cfg.fill(sys)
	c := &Core{
		name: cfg.Name,
		sys:  sys,
		cfg:  cfg,
		fmem: cfg.Mem,
		env:  cfg.Env,
		csrs: make(map[uint32]uint32),
	}
	c.csrs[CSRHartID] = cfg.HartID
	st := sys.Stats()
	c.numInsts = st.Counter(cfg.Name+".committedInsts", "instructions committed")
	c.numBranches = st.Counter(cfg.Name+".branches", "control instructions committed")
	c.numLoads = st.Counter(cfg.Name+".loads", "loads committed")
	c.numStores = st.Counter(cfg.Name+".stores", "stores committed")
	c.numEcalls = st.Counter(cfg.Name+".ecalls", "environment calls")

	model := code.class
	sz := func(base int) int { return int(float64(base) * code.sizeFactor) }

	tr := sys.Tracer()
	c.fnFetch = tr.RegisterFunc(model+"::fetch", sz(2200), sim.FuncVirtual)
	c.fnDecode = tr.RegisterFunc(model+"::decodeInst", sz(3800), sim.FuncVirtual)
	c.fnAdvance = tr.RegisterFunc(model+"::advancePC", sz(900), sim.FuncVirtual)
	c.fnTrap = tr.RegisterFunc(model+"::trap", sz(2600), sim.FuncVirtual)
	classSizes := [...]struct {
		cls  isa.Class
		size int
	}{
		{isa.ClassIntAlu, 1900},
		{isa.ClassIntMult, 1100},
		{isa.ClassIntDiv, 1100},
		{isa.ClassMemRead, 3400},
		{isa.ClassMemWrite, 3200},
		{isa.ClassBranch, 2100},
		{isa.ClassFloatAdd, 1500},
		{isa.ClassFloatMult, 1300},
		{isa.ClassFloatDiv, 900},
		{isa.ClassFloatSqrt, 700},
		{isa.ClassFloatCvt, 800},
		{isa.ClassSystem, 2400},
	}
	for _, cs := range classSizes {
		c.fnExec[cs.cls] = tr.RegisterFunc(fmt.Sprintf("%s::execute<%s>", model, cs.cls), sz(cs.size), code.execFlags)
	}
	for i := 0; i < code.libFuncs; i++ {
		size := 180 + (i*137)%900
		c.libFns = append(c.libFns,
			tr.RegisterFunc(fmt.Sprintf("%s::lib%d", model, i), size, sim.FuncVirtual))
	}
	c.libStride = code.libStride
	return c
}

// Name returns the core's SimObject name.
func (c *Core) Name() string { return c.name }

// System returns the owning system.
func (c *Core) System() *sim.System { return c.sys }

// Decoded returns the predecoded program the core fetches through, nil when
// it decodes every word it fetches.
func (c *Core) Decoded() *isa.Decoded { return c.cfg.Decoded }

// CommittedInsts returns the number of retired instructions.
func (c *Core) CommittedInsts() uint64 { return c.numInsts.Count() }

// cycleIPC returns committed instructions per elapsed clock cycle,
// stalls included.
func (c *Core) cycleIPC() float64 {
	elapsed := c.sys.Now() / ClockPeriod
	if elapsed == 0 {
		return 0
	}
	return float64(c.numInsts.Count()) / float64(elapsed)
}

// SetCommitHook installs fn on the core's retire path: it fires once per
// architecturally committed instruction with the pre-execution PC and the
// decoded form, in commit order, on every CPU model. A nil fn disables the
// hook. Speculative (squashed) instructions never reach it.
func (c *Core) SetCommitHook(fn func(pc uint32, in isa.Inst)) { c.commitHook = fn }

// Halted reports whether the core has stopped permanently.
func (c *Core) Halted() bool { return c.halted }

// Halt stops the core permanently (e.g. SE-mode exit).
func (c *Core) Halt() { c.halted = true }

// Waiting reports whether the core is parked in WFI.
func (c *Core) Waiting() bool { return c.waiting }

// HartID returns the core's hart id (CSRHartID).
func (c *Core) HartID() uint32 { return c.cfg.HartID }

// Park stops the core at the next instruction boundary without halting it,
// reusing the WFI wait machinery every model already honours: the model's
// tick loop sees waiting and lets its events drain. The threading syscall
// surface parks secondary cores before first spawn and blocked joiners /
// futex waiters; Unpark resumes them.
func (c *Core) Park() { c.waiting = true }

// Unpark resumes a parked core one clock later (via the model's wakeup
// event). A core that is not parked is left untouched, so a spurious wake
// is harmless.
func (c *Core) Unpark() {
	if !c.waiting {
		return
	}
	c.waiting = false
	if c.wakeup != nil {
		c.wakeup()
	}
}

// SetPC redirects the core (used by environments during traps, and by
// the threading syscalls to aim a parked core at a spawned thread's
// entry). Redirecting a parked core also squashes the model's fetch
// state: a buffered frontend would otherwise resume fetching the old
// stream and drop every instruction as wrong-path — forever, if the old
// stream's predicted control flow loops.
func (c *Core) SetPC(pc uint32) {
	c.pc = pc
	if c.waiting && c.redirect != nil {
		c.redirect(pc)
	}
}

// RaiseInterrupt marks an interrupt pending and wakes a WFI'd core.
func (c *Core) RaiseInterrupt() {
	c.intPending = true
	if c.waiting {
		c.waiting = false
		if c.wakeup != nil {
			c.wakeup()
		}
	}
}

// ClearInterrupt clears the pending interrupt line.
func (c *Core) ClearInterrupt() { c.intPending = false }

// InterruptReady reports whether an interrupt is pending and enabled.
func (c *Core) InterruptReady() bool {
	return c.intPending && c.csrs[CSRMStatus]&MStatusMIE != 0
}

// takeInterruptIfPending redirects to the trap vector when an interrupt is
// pending and enabled. It returns true if a trap was taken.
func (c *Core) takeInterruptIfPending() bool {
	if !c.intPending || c.csrs[CSRMStatus]&MStatusMIE == 0 {
		return false
	}
	c.sys.TraceCall(c.fnTrap)
	c.intPending = false
	c.csrs[CSRMEPC] = c.pc
	c.csrs[CSRMCause] = CauseTimerInterrupt
	c.csrs[CSRMStatus] &^= MStatusMIE
	c.pc = c.csrs[CSRMTVec]
	return true
}

// Trap enters the machine trap vector with the given cause, saving epc.
// Environments use it for ECALL traps in FS mode.
func (c *Core) Trap(cause uint32, epc uint32) {
	c.sys.TraceCall(c.fnTrap)
	c.csrs[CSRMEPC] = epc
	c.csrs[CSRMCause] = cause
	c.csrs[CSRMStatus] &^= MStatusMIE
	c.pc = c.csrs[CSRMTVec]
}

// ReadReg returns integer register r, for environments and tests.
func (c *Core) ReadReg(r uint8) uint32 { return c.regs.X[r] }

// WriteReg sets integer register r; a write to register 0 is dropped.
func (c *Core) WriteReg(r uint8, v uint32) { c.regs.SetX(r, v) }

// PC returns the core's pc: while an instruction executes (an environment
// call, say), that instruction's address.
func (c *Core) PC() uint32 { return c.pc }

// --- isa.Context implementation ---

// Regs implements isa.Context.
func (c *Core) Regs() *isa.Regs { return &c.regs }

// ReadMem implements isa.Context: a functional read plus host data tracing.
func (c *Core) ReadMem(addr uint32, size int) (uint64, error) {
	if c.sys.Tracing() {
		c.sys.TraceData(c.fmem.HostAddr(addr), uint32(size), false)
	}
	return c.fmem.Read(addr, size)
}

// WriteMem implements isa.Context.
func (c *Core) WriteMem(addr uint32, size int, v uint64) error {
	if c.sys.Tracing() {
		c.sys.TraceData(c.fmem.HostAddr(addr), uint32(size), true)
	}
	return c.fmem.Write(addr, size, v)
}

// ReadCSR implements isa.Context.
func (c *Core) ReadCSR(num uint32) uint32 {
	switch num {
	case CSRCycle:
		return uint32(c.sys.Now() / ClockPeriod)
	case CSRInstret:
		return uint32(c.numInsts.Count())
	}
	return c.csrs[num]
}

// WriteCSR implements isa.Context.
func (c *Core) WriteCSR(num uint32, v uint32) { c.csrs[num] = v }

// Ecall implements isa.Context.
func (c *Core) Ecall() {
	c.numEcalls.Inc()
	c.env.Ecall(c)
}

// Ebreak implements isa.Context.
func (c *Core) Ebreak() { c.env.Ebreak(c) }

// Wfi implements isa.Context.
func (c *Core) Wfi() {
	if c.intPending {
		return // interrupt already pending; WFI falls through
	}
	c.waiting = true
}

// Mret implements isa.Context.
func (c *Core) Mret() uint32 {
	c.csrs[CSRMStatus] |= MStatusMIE
	return c.csrs[CSRMEPC]
}

// fetchWord reads the instruction at pc functionally and traces the host
// access to the guest image.
func (c *Core) fetchWord(pc uint32) (isa.Word, error) {
	if pc%isa.InstBytes != 0 {
		return 0, fmt.Errorf("cpu: %s misaligned fetch at %#x", c.name, pc)
	}
	if c.sys.Tracing() {
		c.sys.TraceData(c.fmem.HostAddr(pc), isa.InstBytes, false)
	}
	v, err := c.fmem.Read(pc, isa.InstBytes)
	if err != nil {
		return 0, err
	}
	return isa.Word(v), nil
}

// decode traces the host decode function and decodes the word fetched at
// pc, from the predecoded image when it holds that word. The result is
// read-only, and valid until the core's next decode.
func (c *Core) decode(pc uint32, w isa.Word) *isa.Inst {
	c.sys.TraceCall(c.fnDecode)
	return c.cfg.Decoded.Decode(pc, w, &c.decodeMiss)
}

// execute runs one instruction architecturally, tracing the host-side
// execute function for its class, and updates commit statistics.
func (c *Core) execute(in isa.Inst) (isa.Outcome, error) {
	sys := c.sys
	if sys.Tracing() {
		sys.TraceCall(c.fnExec[in.Class()])
	}
	if len(c.libFns) > 0 && c.libDue == 0 {
		sys.TraceCall(c.libFns[c.libRotor%len(c.libFns)])
		c.libRotor++
	}
	pcBefore := c.pc
	out, err := isa.Execute(in, pcBefore, c)
	if err != nil {
		return out, fmt.Errorf("cpu: %s at pc %#x: %w", c.name, c.pc, err)
	}
	c.numInsts.Inc()
	if c.libDue == 0 {
		c.libDue = c.libStride
	}
	c.libDue--
	if c.commitHook != nil {
		c.commitHook(pcBefore, in)
	}
	if c.cfg.ExecTrace != nil {
		fmt.Fprintf(c.cfg.ExecTrace, "%10d: %s: %#08x: %s\n",
			c.sys.Now(), c.name, pcBefore, in)
	}
	if in.IsControl() {
		c.numBranches.Inc()
	}
	if in.IsLoad() {
		c.numLoads.Inc()
	}
	if in.IsStore() {
		c.numStores.Inc()
	}
	sys.TraceCall(c.fnAdvance)
	return out, nil
}

// ArchState is the serializable architectural state of one core, the
// per-CPU portion of a checkpoint.
type ArchState struct {
	Regs  [32]uint32        `json:"regs"`
	FRegs [32]float64       `json:"fregs"`
	PC    uint32            `json:"pc"`
	CSRs  map[uint32]uint32 `json:"csrs"`
}

// SaveArchState captures the core's architectural state. Only meaningful at
// an instruction boundary (a quiesced core).
func (c *Core) SaveArchState() ArchState {
	s := ArchState{Regs: c.regs.X, FRegs: c.regs.F, PC: c.pc, CSRs: map[uint32]uint32{}}
	//lint:deterministic map-to-map copy commutes; JSON encoding sorts the keys
	for k, v := range c.csrs {
		s.CSRs[k] = v
	}
	return s
}

// LoadArchState overwrites the core's architectural state from a
// checkpoint. Register 0 is zeroed whatever the checkpoint holds: the
// executor reads x0 from the file, so the file must hold zero there.
func (c *Core) LoadArchState(s ArchState) {
	c.regs = isa.Regs{X: s.Regs, F: s.FRegs}
	c.regs.X[0] = 0
	c.pc = s.PC
	c.csrs = make(map[uint32]uint32, len(s.CSRs))
	//lint:deterministic map-to-map copy commutes
	for k, v := range s.CSRs {
		c.csrs[k] = v
	}
}

// CPU is the interface every model satisfies.
type CPU interface {
	sim.SimObject
	// Core returns the shared architectural core.
	Core() *Core
	// Start begins execution at entry once the simulation runs.
	Start(entry uint32)
	// IPC returns committed instructions per cycle so far.
	IPC() float64
}

// Constructor builds one CPU of a model at its default geometry.
type Constructor func(sys *sim.System, cfg Config) CPU

// hostCode is what one CPU model registers with the tracer beyond its
// stage functions. Host code footprint and dispatch polymorphism scale
// strongly with model detail: AtomicSimpleCPU is a tight, nearly
// monomorphic loop while O3 touches far more (and megamorphic) code per
// instruction — the root of the paper's Fig. 4 contrast. With the default
// helper fanout the cold-code tails produce total function counts matching
// the paper's Fig. 15 (1602/2557/3957/5209 for Atomic/Timing/Minor/O3).
type hostCode struct {
	class      string        // gem5 class name, prefixing every function
	sizeFactor float64       // scales the base size of each core function
	execFlags  sim.FuncFlags // of the per-class execute functions
	libFuncs   int           // cold-code tail: functions registered...
	libStride  uint64        // ...and one touched every libStride instructions
}

// The host-code row of each model.
var (
	atomicCode = hostCode{"AtomicSimpleCPU", 0.35, sim.FuncVirtual, 85, 26}
	timingCode = hostCode{"TimingSimpleCPU", 0.80, sim.FuncVirtual, 155, 18}
	minorCode  = hostCode{"MinorCPU", 1.15, sim.FuncVirtual | sim.FuncPoly, 260, 12}
	o3Code     = hostCode{"O3CPU", 1.40, sim.FuncVirtual | sim.FuncPoly, 354, 10}
)

// models is the one table of CPU models by name.
var models = map[string]Constructor{
	"atomic": func(sys *sim.System, cfg Config) CPU { return NewAtomicCPU(sys, cfg) },
	"timing": func(sys *sim.System, cfg Config) CPU { return NewTimingCPU(sys, cfg) },
	"minor":  func(sys *sim.System, cfg Config) CPU { return NewMinorCPU(sys, cfg) },
	"o3":     func(sys *sim.System, cfg Config) CPU { return NewO3CPU(sys, cfg, DefaultO3Config()) },
}

// Model returns the constructor of the named model (atomic, timing, minor
// or o3). Looking a name up builds nothing, so a caller can reject an
// unknown model before it constructs a system.
func Model(name string) (Constructor, error) {
	if newCPU, ok := models[name]; ok {
		return newCPU, nil
	}
	return nil, fmt.Errorf("unknown CPU model %q", name)
}
