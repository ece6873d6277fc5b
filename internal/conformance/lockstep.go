package conformance

import (
	"fmt"
	"math"

	"gem5prof/internal/core"
	"gem5prof/internal/cpu"
	"gem5prof/internal/guest"
	"gem5prof/internal/isa"
	"gem5prof/internal/sim"
)

// Models lists the guest CPU models under conformance test, in the
// paper's order of increasing detail.
var Models = []string{"atomic", "timing", "minor", "o3"}

// Run limits for one model execution of one generated program.
const (
	runTimeout = 10 * sim.Second
	eventLimit = 100_000_000
	// refMaxSteps bounds the reference interpreter; generated programs
	// are fuel-bounded far below this, so hitting it means the generator
	// (or the interpreter) is broken.
	refMaxSteps = 5_000_000
)

// memBytes is the guest memory size of the reference interpreter: the 16 MiB
// core gives every guest.
const memBytes = 16 << 20

// Result is the observable outcome of running one program on one
// executor: the full architectural end state plus a hash of the committed
// instruction trace.
type Result struct {
	// Model is one of Models, or "ref" for the reference interpreter.
	Model    string
	ExitCode uint32
	Regs     [32]uint32
	// FRegs holds the float registers as raw bits so NaN payloads and
	// signed zeros compare exactly.
	FRegs [32]uint64
	// Retired is the committed instruction count. The terminating
	// ecall/ebreak unwinds before it is counted, on every executor.
	Retired uint64
	// MemSum is the allocation-independent checksum of final guest memory.
	MemSum uint64
	// TraceHash folds (pc, inst) of every committed instruction in order.
	TraceHash uint64
	// Ticks is the guest time at exit (0 for the reference interpreter,
	// which has no timing model).
	Ticks sim.Tick
	// Stats is the run's statistics registry (nil for the reference).
	Stats *sim.Registry
}

// traceHash accumulates an FNV-1a hash over the committed-instruction
// stream.
type traceHash uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newTraceHash() traceHash { return fnvOffset64 }

func (h *traceHash) mix(pc uint32, in isa.Inst) {
	v := uint64(*h)
	step := func(b byte) { v = (v ^ uint64(b)) * fnvPrime64 }
	for s := 0; s < 32; s += 8 {
		step(byte(pc >> s))
	}
	step(byte(in.Op))
	step(in.Rd)
	step(in.Rs1)
	step(in.Rs2)
	for s := 0; s < 32; s += 8 {
		step(byte(uint32(in.Imm) >> s))
	}
	*h = traceHash(v)
}

// RunModel executes prog on one CPU model (with or without the cache
// hierarchy) and captures its Result. commit, when non-nil, additionally
// observes every committed (pc, inst) pair. The rig is a product guest
// running prog (core.BuildProgram).
func RunModel(model string, prog *isa.Program, caches bool, commit func(pc uint32, in isa.Inst)) (*Result, error) {
	g, err := buildRig(model, 1, caches, prog)
	if err != nil {
		return nil, err
	}
	c := g.CPUs[0].Core()
	h := newTraceHash()
	c.SetCommitHook(func(pc uint32, in isa.Inst) {
		h.mix(pc, in)
		if commit != nil {
			commit(pc, in)
		}
	})
	res := g.Sys.Run(runTimeout, eventLimit)
	if res.Status != sim.ExitRequested {
		return nil, fmt.Errorf("conformance: %s did not exit: %v after %d events (reason %q)",
			model, res.Status, res.Events, res.ExitReason)
	}
	out := &Result{
		Model:     model,
		ExitCode:  uint32(res.ExitCode),
		Retired:   c.CommittedInsts(),
		MemSum:    g.Mem.Checksum(),
		TraceHash: uint64(h),
		Ticks:     res.Now,
		Stats:     g.Sys.Stats(),
	}
	for r := uint8(0); r < 32; r++ {
		out.Regs[r] = c.ReadReg(r)
		out.FRegs[r] = math.Float64bits(c.ReadFReg(r))
	}
	return out, nil
}

// buildRig builds the SE guest every conformance run executes prog on: model
// on cores cores, with the cache hierarchy or ideal memory.
func buildRig(model string, cores int, caches bool, prog *isa.Program) (*core.GuestSystem, error) {
	cfg := core.GuestConfig{CPU: core.CPUModel(model), Cores: cores, IdealMemory: !caches}
	g, err := core.BuildProgram(cfg, prog)
	if err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	return g, nil
}

// refCtx is a bare interpreter context over real guest memory: the oracle
// every pipeline model is compared against.
type refCtx struct {
	regs  [32]uint32
	fregs [32]float64
	pc    uint32
	csrs  map[uint32]uint32
	mem   *guest.Memory
}

func (c *refCtx) ReadReg(r uint8) uint32 {
	if r == 0 {
		return 0
	}
	return c.regs[r]
}

func (c *refCtx) WriteReg(r uint8, v uint32) {
	if r != 0 {
		c.regs[r] = v
	}
}
func (c *refCtx) ReadFReg(r uint8) float64                 { return c.fregs[r] }
func (c *refCtx) WriteFReg(r uint8, v float64)             { c.fregs[r] = v }
func (c *refCtx) PC() uint32                               { return c.pc }
func (c *refCtx) ReadMem(a uint32, s int) (uint64, error)  { return c.mem.Read(a, s) }
func (c *refCtx) WriteMem(a uint32, s int, v uint64) error { return c.mem.Write(a, s, v) }
func (c *refCtx) ReadCSR(num uint32) uint32                { return c.csrs[num] }
func (c *refCtx) WriteCSR(num uint32, v uint32)            { c.csrs[num] = v }
func (c *refCtx) Ecall()                                   {}
func (c *refCtx) Ebreak()                                  {}
func (c *refCtx) Wfi()                                     {}

// Mret mirrors cpu.Core.Mret, including the MIE side effect, so programs
// using mret stay in architectural lockstep.
func (c *refCtx) Mret() uint32 {
	c.csrs[cpu.CSRMStatus] |= cpu.MStatusMIE
	return c.csrs[cpu.CSRMEPC]
}

// RunRef executes prog on the reference interpreter (no pipeline, no
// events) and captures its Result. It stops at the first ecall/ebreak
// *before* executing it, matching the CPU models whose exit request
// unwinds before the terminator is counted as committed.
func RunRef(prog *isa.Program, commit func(pc uint32, in isa.Inst)) (*Result, error) {
	gm := guest.NewMemory(memBytes)
	if err := gm.Load(prog); err != nil {
		return nil, err
	}
	ctx := &refCtx{csrs: map[uint32]uint32{}, mem: gm, pc: prog.Entry}
	h := newTraceHash()
	out := &Result{Model: "ref"}
	for steps := 0; steps < refMaxSteps; steps++ {
		w, err := gm.FetchWord(ctx.pc)
		if err != nil {
			return nil, fmt.Errorf("conformance: ref fetch: %w", err)
		}
		in := isa.Decode(w)
		if in.Op == isa.OpEcall || in.Op == isa.OpEbreak {
			out.ExitCode = ctx.ReadReg(10)
			out.Retired = uint64(steps)
			out.MemSum = gm.Checksum()
			out.TraceHash = uint64(h)
			for r := uint8(0); r < 32; r++ {
				out.Regs[r] = ctx.ReadReg(r)
				out.FRegs[r] = math.Float64bits(ctx.fregs[r])
			}
			return out, nil
		}
		o, err := isa.Execute(in, ctx)
		if err != nil {
			return nil, fmt.Errorf("conformance: ref exec at %#x: %w", ctx.pc, err)
		}
		h.mix(ctx.pc, in)
		if commit != nil {
			commit(ctx.pc, in)
		}
		ctx.pc = o.NextPC(ctx.pc)
	}
	return nil, fmt.Errorf("conformance: reference interpreter exceeded %d steps", refMaxSteps)
}

// Divergence reports one architectural mismatch between a CPU model and
// the reference interpreter.
type Divergence struct {
	Seed   int64
	Caches bool
	Model  string
	// Field names what diverged: "exit", "retired", "mem", "trace",
	// "x<N>", "f<N>", or "status" (the model failed to exit at all).
	Field string
	Got   string
	Want  string
	// FirstStep/FirstPC/FirstInst localize the first committed
	// instruction at which the model's trace departs from the
	// reference's (-1 when the traces agree or localization was not run).
	FirstStep int
	FirstPC   uint32
	FirstInst string
}

func (d Divergence) String() string {
	s := fmt.Sprintf("seed %d caches=%v %s: %s diverged: got %s want %s",
		d.Seed, d.Caches, d.Model, d.Field, d.Got, d.Want)
	if d.FirstStep >= 0 {
		s += fmt.Sprintf(" (first divergent commit: step %d pc %#x %s)", d.FirstStep, d.FirstPC, d.FirstInst)
	}
	return s
}

// LockstepResult is the outcome of one program across all executors.
type LockstepResult struct {
	Ref         *Result
	Models      []*Result
	Divergences []Divergence
}

// RunLockstep executes prog on the reference interpreter and every CPU
// model, diffing each model's final architectural state and trace hash
// against the reference. Any mismatch is localized to the first divergent
// committed instruction.
func RunLockstep(prog *isa.Program, caches bool) (*LockstepResult, error) {
	ref, err := RunRef(prog, nil)
	if err != nil {
		return nil, err
	}
	out := &LockstepResult{Ref: ref}
	for _, model := range Models {
		res, err := RunModel(model, prog, caches, nil)
		if err != nil {
			out.Divergences = append(out.Divergences, Divergence{
				Model: model, Field: "status", Got: err.Error(), Want: "clean exit", FirstStep: -1,
			})
			continue
		}
		out.Models = append(out.Models, res)
		divs := diffResults(ref, res)
		if len(divs) > 0 {
			step, pc, inst := localize(prog, model, caches)
			for i := range divs {
				divs[i].FirstStep, divs[i].FirstPC, divs[i].FirstInst = step, pc, inst
				divs[i].Caches = caches
			}
			out.Divergences = append(out.Divergences, divs...)
		}
	}
	return out, nil
}

// diffResults compares one model result against the reference.
func diffResults(ref, got *Result) []Divergence {
	var divs []Divergence
	add := func(field, g, w string) {
		divs = append(divs, Divergence{Model: got.Model, Field: field, Got: g, Want: w, FirstStep: -1})
	}
	if got.ExitCode != ref.ExitCode {
		add("exit", fmt.Sprintf("%#x", got.ExitCode), fmt.Sprintf("%#x", ref.ExitCode))
	}
	if got.Retired != ref.Retired {
		add("retired", fmt.Sprint(got.Retired), fmt.Sprint(ref.Retired))
	}
	if got.MemSum != ref.MemSum {
		add("mem", fmt.Sprintf("%#x", got.MemSum), fmt.Sprintf("%#x", ref.MemSum))
	}
	if got.TraceHash != ref.TraceHash {
		add("trace", fmt.Sprintf("%#x", got.TraceHash), fmt.Sprintf("%#x", ref.TraceHash))
	}
	for r := 0; r < 32; r++ {
		if got.Regs[r] != ref.Regs[r] {
			add(fmt.Sprintf("x%d", r), fmt.Sprintf("%#x", got.Regs[r]), fmt.Sprintf("%#x", ref.Regs[r]))
		}
		if got.FRegs[r] != ref.FRegs[r] {
			add(fmt.Sprintf("f%d", r), fmt.Sprintf("%#x", got.FRegs[r]), fmt.Sprintf("%#x", ref.FRegs[r]))
		}
	}
	return divs
}

// commitRecord is one committed instruction in a recorded trace.
type commitRecord struct {
	pc uint32
	in isa.Inst
}

// localize re-runs the reference with a recorder and the model with a
// comparing hook, returning the first committed instruction at which the
// streams differ (step, reference pc, disassembly). Returns step -1 when
// the streams agree (the divergence is then in post-exit state only).
func localize(prog *isa.Program, model string, caches bool) (int, uint32, string) {
	var trace []commitRecord
	if _, err := RunRef(prog, func(pc uint32, in isa.Inst) {
		trace = append(trace, commitRecord{pc, in})
	}); err != nil {
		return -1, 0, ""
	}
	step, firstPC, firstInst := -1, uint32(0), ""
	idx := 0
	_, err := RunModel(model, prog, caches, func(pc uint32, in isa.Inst) {
		if step >= 0 {
			return
		}
		if idx >= len(trace) || trace[idx].pc != pc || trace[idx].in != in {
			step = idx
			firstPC = pc
			firstInst = in.String()
		}
		idx++
	})
	if err != nil && step < 0 {
		return -1, 0, ""
	}
	if step < 0 && idx < len(trace) {
		// Model committed a prefix of the reference trace.
		step, firstPC, firstInst = idx, trace[idx].pc, trace[idx].in.String()
	}
	return step, firstPC, firstInst
}
