package cpu

import (
	"strings"
	"testing"

	"gem5prof/internal/guest"
	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// haltEnv exits the simulation on ecall/ebreak; a0 carries the exit code.
type haltEnv struct{ sys *sim.System }

func (e *haltEnv) Ecall(c *Core) {
	c.Halt()
	e.sys.RequestExit("ecall exit", int(c.ReadReg(10)))
}

func (e *haltEnv) Ebreak(c *Core) {
	c.Halt()
	e.sys.RequestExit("ebreak exit", int(c.ReadReg(10)))
}

// memAdapter exposes guest.Memory as FuncMem.
type memAdapter struct{ m *guest.Memory }

func (a memAdapter) Read(addr uint32, size int) (uint64, error)  { return a.m.Read(addr, size) }
func (a memAdapter) Write(addr uint32, size int, v uint64) error { return a.m.Write(addr, size, v) }
func (a memAdapter) HostAddr(addr uint32) uint64                 { return a.m.HostAddr(addr) }

type rig struct {
	sys  *sim.System
	mem  *guest.Memory
	prog *isa.Program
	cpu  CPU
	hier *mem.Hierarchy
}

// buildRig assembles src and constructs a CPU of the given model
// ("atomic", "timing", "minor", "o3") through the model table, optionally
// with a real cache hierarchy ("caches") or ideal memory.
func buildRig(t *testing.T, model, src string, caches bool) *rig {
	t.Helper()
	newCPU, err := Model(model)
	if err != nil {
		t.Fatal(err)
	}
	return buildRigWith(t, newCPU, src, caches)
}

// buildRigWith is buildRig for any constructor: a model at a custom
// geometry, or one behind an instrumented port.
func buildRigWith(t *testing.T, newCPU Constructor, src string, caches bool) *rig {
	t.Helper()
	sys := sim.NewSystem(7)
	gm := guest.NewMemory(16 * 1024 * 1024)
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := gm.Load(prog); err != nil {
		t.Fatalf("load: %v", err)
	}
	cfg := Config{
		Name: "cpu0",
		Mem:  memAdapter{gm},
		Env:  &haltEnv{sys},
	}
	r := &rig{sys: sys, mem: gm, prog: prog}
	if caches {
		r.hier = mem.NewHierarchy(sys, mem.DefaultHierarchyConfig("sys"))
		cfg.IPort = r.hier.L1I
		cfg.DPort = r.hier.L1D
	}
	r.cpu = newCPU(sys, cfg)
	r.cpu.Start(prog.Entry)
	return r
}

func runRig(t *testing.T, r *rig) sim.RunResult {
	t.Helper()
	res := r.sys.Run(10*sim.Second, 50_000_000)
	if res.Status != sim.ExitRequested {
		t.Fatalf("run ended with %v (reason %q) after %d events at tick %d",
			res.Status, res.ExitReason, res.Events, res.Now)
	}
	return res
}

var allModels = []string{"atomic", "timing", "minor", "o3"}

const sumProgram = `
_start:
	li   a0, 0
	li   t0, 1
	li   t1, 101
loop:
	add  a0, a0, t0
	addi t0, t0, 1
	bne  t0, t1, loop
	ecall
`

func TestAllModelsComputeSum(t *testing.T) {
	for _, model := range allModels {
		for _, caches := range []bool{false, true} {
			name := model
			if caches {
				name += "+caches"
			}
			t.Run(name, func(t *testing.T) {
				r := buildRig(t, model, sumProgram, caches)
				res := runRig(t, r)
				if got := r.cpu.Core().ReadReg(10); got != 5050 {
					t.Fatalf("a0 = %d, want 5050", got)
				}
				if res.ExitCode != 5050 {
					t.Fatalf("exit code = %d", res.ExitCode)
				}
			})
		}
	}
}

func TestAllModelsSameInstCount(t *testing.T) {
	var counts []uint64
	for _, model := range allModels {
		r := buildRig(t, model, sumProgram, true)
		runRig(t, r)
		counts = append(counts, r.cpu.Core().CommittedInsts())
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("inst counts diverge: %v (models %v)", counts, allModels)
		}
	}
	// 6 setup (3 li = 6 insts) + 100 iterations * 3. The final ecall
	// terminates the run before it is counted as committed.
	if counts[0] != 6+300 {
		t.Fatalf("inst count = %d", counts[0])
	}
}

const memProgram = `
_start:
	la   t0, array
	li   t1, 0        # i
	li   t2, 64       # n
fill:
	mul  t3, t1, t1   # i*i
	slli t4, t1, 2
	add  t4, t4, t0
	sw   t3, 0(t4)
	addi t1, t1, 1
	bne  t1, t2, fill
	# sum them back
	li   a0, 0
	li   t1, 0
sum:
	slli t4, t1, 2
	add  t4, t4, t0
	lw   t3, 0(t4)
	add  a0, a0, t3
	addi t1, t1, 1
	bne  t1, t2, sum
	ecall
array:
	.space 256
`

func TestAllModelsMemory(t *testing.T) {
	want := uint32(0)
	for i := uint32(0); i < 64; i++ {
		want += i * i
	}
	for _, model := range allModels {
		t.Run(model, func(t *testing.T) {
			r := buildRig(t, model, memProgram, true)
			runRig(t, r)
			if got := r.cpu.Core().ReadReg(10); got != want {
				t.Fatalf("a0 = %d, want %d", got, want)
			}
			if r.hier.L1D.Misses() == 0 {
				t.Fatal("no L1D misses recorded")
			}
			if r.cpu.Core().numLoads.Count() != 64 || r.cpu.Core().numStores.Count() != 64 {
				t.Fatalf("loads/stores = %d/%d",
					r.cpu.Core().numLoads.Count(), r.cpu.Core().numStores.Count())
			}
		})
	}
}

const fpProgram = `
_start:
	la   t0, vals
	fld  f1, 0(t0)
	fld  f2, 8(t0)
	fadd f3, f1, f2
	fmul f4, f3, f3
	fsqrt f5, f4
	fsd  f5, 16(t0)
	fld  f6, 16(t0)
	fcvt.w.d a0, f6
	ecall
vals:
	.double 1.5
	.double 2.5
	.space 8
`

func TestAllModelsFloat(t *testing.T) {
	for _, model := range allModels {
		t.Run(model, func(t *testing.T) {
			r := buildRig(t, model, fpProgram, false)
			runRig(t, r)
			// sqrt((1.5+2.5)^2) = 4
			if got := r.cpu.Core().ReadReg(10); got != 4 {
				t.Fatalf("a0 = %d, want 4", got)
			}
		})
	}
}

func TestAtomicIPCIsOne(t *testing.T) {
	r := buildRig(t, "atomic", sumProgram, true)
	runRig(t, r)
	a := r.cpu.(*AtomicCPU)
	if ipc := a.IPC(); ipc != 1 {
		t.Fatalf("atomic IPC = %v, want exactly 1", ipc)
	}
}

func TestTimingSlowerThanAtomic(t *testing.T) {
	ra := buildRig(t, "atomic", memProgram, true)
	runRig(t, ra)
	atomicTime := ra.sys.Now()
	rt := buildRig(t, "timing", memProgram, true)
	runRig(t, rt)
	timingTime := rt.sys.Now()
	if timingTime <= atomicTime {
		t.Fatalf("timing (%d) should be slower than atomic (%d)", timingTime, atomicTime)
	}
}

func TestO3FasterThanTimingWithCaches(t *testing.T) {
	rt := buildRig(t, "timing", memProgram, true)
	runRig(t, rt)
	ro := buildRig(t, "o3", memProgram, true)
	runRig(t, ro)
	if ro.sys.Now() >= rt.sys.Now() {
		t.Fatalf("o3 (%d) should beat timing simple (%d)", ro.sys.Now(), rt.sys.Now())
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	r := buildRig(t, "minor", sumProgram, false)
	runRig(t, r)
	bp := r.cpu.(*MinorCPU).BP()
	if bp.Lookups() == 0 {
		t.Fatal("no predictor lookups")
	}
	if rate := bp.MispredictRate(); rate > 0.10 {
		t.Fatalf("mispredict rate %v too high for a simple loop", rate)
	}
}

func TestO3BranchHeavyStillCorrect(t *testing.T) {
	// Data-dependent branches (parity of a simple LCG) defeat prediction;
	// results must stay architecturally exact.
	src := `
_start:
	li   a0, 0
	li   t0, 12345    # lcg state
	li   t1, 0        # i
	li   t2, 200      # n
loop:
	li   t4, 1103515245
	mul  t0, t0, t4
	addi t0, t0, 12345
	andi t3, t0, 1
	beq  t3, x0, even
	addi a0, a0, 1
even:
	addi t1, t1, 1
	bne  t1, t2, loop
	ecall
`
	want := func() uint32 {
		var a, s uint32 = 0, 12345
		for i := 0; i < 200; i++ {
			s = s*1103515245 + 12345
			if s&1 == 1 {
				a++
			}
		}
		return a
	}()
	for _, model := range []string{"minor", "o3"} {
		r := buildRig(t, model, src, true)
		runRig(t, r)
		if got := r.cpu.Core().ReadReg(10); got != want {
			t.Fatalf("%s: a0 = %d, want %d", model, got, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, model := range allModels {
		r1 := buildRig(t, model, memProgram, true)
		runRig(t, r1)
		r2 := buildRig(t, model, memProgram, true)
		runRig(t, r2)
		if r1.sys.Now() != r2.sys.Now() {
			t.Fatalf("%s nondeterministic: %d vs %d", model, r1.sys.Now(), r2.sys.Now())
		}
	}
}

func TestFetchFaultTerminates(t *testing.T) {
	// Jump far outside physical memory.
	src := `
_start:
	li  t0, 0x00F00000
	slli t0, t0, 4
	jalr x0, 0(t0)
`
	for _, model := range allModels {
		t.Run(model, func(t *testing.T) {
			r := buildRig(t, model, src, false)
			res := r.sys.Run(1*sim.Second, 10_000_000)
			if res.Status != sim.ExitRequested || res.ExitCode != 255 {
				t.Fatalf("res = %+v", res)
			}
			if !strings.Contains(res.ExitReason, "cpu") && !strings.Contains(res.ExitReason, "guest") {
				t.Fatalf("reason = %q", res.ExitReason)
			}
		})
	}
}

func TestDataFaultTerminates(t *testing.T) {
	src := `
_start:
	li  t0, 0x00F00000
	slli t0, t0, 4
	lw  t1, 0(t0)
	ecall
`
	for _, model := range allModels {
		r := buildRig(t, model, src, false)
		res := r.sys.Run(1*sim.Second, 10_000_000)
		if res.Status != sim.ExitRequested || res.ExitCode != 255 {
			t.Fatalf("%s: res = %+v", model, res)
		}
	}
}

func TestWFIAndTimerInterrupt(t *testing.T) {
	// Program: install a handler, enable MIE, wfi; handler sets a0 and exits.
	src := `
_start:
	la   t0, handler
	csrrw x0, 0x305, t0    # mtvec
	li   t1, 8
	csrrs x0, 0x300, t1    # mstatus.MIE
	wfi
	nop
	nop
spin:
	j    spin
handler:
	li   a0, 77
	ecall
`
	for _, model := range allModels {
		t.Run(model, func(t *testing.T) {
			r := buildRig(t, model, src, false)
			// Raise a timer interrupt at 1us.
			core := r.cpu.Core()
			r.sys.Schedule(sim.NewEvent("timer", 0, func() { core.RaiseInterrupt() }), 1*sim.Microsecond)
			res := runRig(t, r)
			if res.ExitCode != 77 {
				t.Fatalf("exit code = %d", res.ExitCode)
			}
			if res.Now < 1*sim.Microsecond {
				t.Fatalf("woke too early: %d", res.Now)
			}
		})
	}
}

func TestMretReturnsFromTrap(t *testing.T) {
	src := `
_start:
	la   t0, handler
	csrrw x0, 0x305, t0
	li   t1, 8
	csrrs x0, 0x300, t1
	wfi
	li   a0, 11          # resumes here after mret
	ecall
handler:
	addi s0, s0, 1
	mret
`
	for _, model := range allModels {
		r := buildRig(t, model, src, false)
		core := r.cpu.Core()
		r.sys.Schedule(sim.NewEvent("timer", 0, func() { core.RaiseInterrupt() }), 500*sim.Nanosecond)
		res := runRig(t, r)
		if res.ExitCode != 11 {
			t.Fatalf("%s: exit = %d", model, res.ExitCode)
		}
		if core.ReadReg(8) != 1 {
			t.Fatalf("%s: handler ran %d times", model, core.ReadReg(8))
		}
	}
}

func TestCSRCycleAndInstret(t *testing.T) {
	src := `
_start:
	csrrs a1, 0xC02, x0   # instret
	nop
	nop
	nop
	csrrs a2, 0xC02, x0
	sub   a0, a2, a1
	ecall
`
	r := buildRig(t, "atomic", src, false)
	runRig(t, r)
	if got := r.cpu.Core().ReadReg(10); got != 4 {
		t.Fatalf("instret delta = %d, want 4", got)
	}
}

// TestLoadedX0ReadsZero loads each model's core from a checkpoint whose
// register 0 is not zero. The executor reads x0 from the register file, so
// LoadArchState must zero it: the program reads x0 as 0 and the saved state
// holds 0 there.
func TestLoadedX0ReadsZero(t *testing.T) {
	src := `
_start:
	add  a0, x0, a1
	addi a0, a0, 0
	or   a2, x0, x0
	ecall
`
	for _, model := range allModels {
		r := buildRig(t, model, src, false)
		core := r.cpu.Core()
		var s ArchState
		s.Regs[0] = 0xDEAD_BEEF
		s.Regs[11] = 5
		s.Regs[12] = 9
		s.PC = r.prog.Entry
		core.LoadArchState(s)
		if got := core.ReadReg(0); got != 0 {
			t.Fatalf("%s: x0 reads %#x after LoadArchState", model, got)
		}
		res := runRig(t, r)
		if res.ExitCode != 5 || core.ReadReg(12) != 0 {
			t.Fatalf("%s: a0 = %d (want 5), a2 = %#x (want 0): x0 did not read as zero", model, res.ExitCode, core.ReadReg(12))
		}
		if saved := core.SaveArchState(); saved.Regs[0] != 0 {
			t.Fatalf("%s: saved x0 = %#x", model, saved.Regs[0])
		}
	}
}

func TestHaltStopsScheduling(t *testing.T) {
	r := buildRig(t, "atomic", sumProgram, false)
	runRig(t, r)
	if !r.cpu.Core().Halted() {
		t.Fatal("core not halted")
	}
	// Queue should drain completely after halt.
	res := r.sys.Run(10*sim.Second, 0)
	if res.Status != sim.ExitQueueEmpty {
		t.Fatalf("leftover events: %+v", res)
	}
}

func TestTournamentBPDirectionLearning(t *testing.T) {
	st := sim.NewRegistry()
	bp := NewTournamentBP(st, "bp")
	br := isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 2, Imm: -4}
	pc := uint32(0x1000)
	// Train: always taken.
	for i := 0; i < 32; i++ {
		bp.Update(pc, br, true, pc-16)
	}
	if p := bp.Predict(pc, br); !p.Taken || p.Target != pc-16 {
		t.Fatalf("prediction after training = %+v", p)
	}
	// RAS: call then return.
	call := isa.Inst{Op: isa.OpJal, Rd: 1, Imm: 100}
	bp.Update(pc, call, true, pc+400)
	ret := isa.Inst{Op: isa.OpJalr, Rd: 0, Rs1: 1}
	if p := bp.Predict(pc+400, ret); !p.Taken || p.Target != pc+4 {
		t.Fatalf("RAS prediction = %+v", p)
	}
	// Indirect via BTB.
	ind := isa.Inst{Op: isa.OpJalr, Rd: 0, Rs1: 5}
	bp.Update(0x2000, ind, true, 0x3000)
	if p := bp.Predict(0x2000, ind); p.Target != 0x3000 {
		t.Fatalf("BTB prediction = %+v", p)
	}
}

func TestIdealPort(t *testing.T) {
	sys := sim.NewSystem(1)
	p := IdealPort{Sys: sys, Latency: 5}
	if p.AtomicLatency(mem.Access{}) != 5 {
		t.Fatal("atomic latency")
	}
	var at sim.Tick
	p.SendTiming(mem.Access{}, func() { at = sys.Now() })
	p.SendTiming(mem.Access{}, nil) // nil done must not panic
	sys.Run(sim.MaxTick, 0)
	if at != 5 {
		t.Fatalf("timing completion at %d", at)
	}
}
