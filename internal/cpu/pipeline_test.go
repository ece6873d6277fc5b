package cpu

import (
	"testing"

	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// Structural tests for the detailed pipeline models: resource limits must
// actually bound the machine, squashes must be counted, and the stat
// registry must expose it all.

// longDepChain is a program whose every instruction depends on the previous
// one: no ILP at all.
const longDepChain = `
_start:
	li   t0, 1
	li   t1, 2000
chain:
	mul  t0, t0, t0
	addi t0, t0, 3
	mul  t0, t0, t0
	addi t0, t0, 7
	addi t1, t1, -1
	bne  t1, x0, chain
	mv   a0, t0
	ecall
`

// wideILP has eight independent accumulator streams (x18..x25) and a
// dedicated counter (x31) — no ABI-alias overlap.
const wideILP = `
_start:
	li   x31, 2000
wloop:
	addi x18, x18, 1
	addi x19, x19, 2
	addi x20, x20, 3
	addi x21, x21, 4
	addi x22, x22, 5
	addi x23, x23, 6
	addi x24, x24, 7
	addi x25, x25, 8
	addi x31, x31, -1
	bne  x31, x0, wloop
	add  a0, x18, x25
	ecall
`

func TestO3ExploitsILP(t *testing.T) {
	dep := buildRig(t, "o3", longDepChain, false)
	runRig(t, dep)
	depIPC := dep.cpu.IPC()
	ilp := buildRig(t, "o3", wideILP, false)
	runRig(t, ilp)
	ilpIPC := ilp.cpu.IPC()
	if ilpIPC < depIPC*1.5 {
		t.Fatalf("O3 should exploit ILP: dep chain IPC %.2f vs wide %.2f", depIPC, ilpIPC)
	}
	if ilpIPC < 2 {
		t.Fatalf("8-wide O3 on pure ILP should exceed IPC 2, got %.2f", ilpIPC)
	}
}

func TestMinorBoundedByWidth(t *testing.T) {
	ilp := buildRig(t, "minor", wideILP, false)
	runRig(t, ilp)
	if ipc := ilp.cpu.IPC(); ipc > 2.05 {
		t.Fatalf("2-wide Minor cannot exceed IPC 2, got %.2f", ipc)
	}
}

func TestO3SquashCounting(t *testing.T) {
	// Data-dependent branches mispredict; squashes must be recorded.
	r := buildRig(t, "o3", `
_start:
	li   t0, 99991
	li   t1, 3000
sloop:
	li   t4, 1103515245
	mul  t0, t0, t4
	addi t0, t0, 12345
	andi t2, t0, 1
	beq  t2, x0, even
	addi a0, a0, 1
even:
	addi t1, t1, -1
	bne  t1, x0, sloop
	ecall
`, false)
	runRig(t, r)
	o3 := r.cpu.(*O3CPU)
	if o3.squashes.Count() == 0 {
		t.Fatal("no squashes recorded for mispredicting branches")
	}
	if o3.bp.Mispredicts() == 0 {
		t.Fatal("no mispredicts recorded")
	}
	// A sanity bound: can't mispredict more often than branches resolve.
	if o3.bp.Mispredicts() > o3.bp.Lookups() {
		t.Fatal("mispredicts exceed lookups")
	}
}

func TestO3LSQBoundsOutstandingLoads(t *testing.T) {
	// A burst of independent loads: the LQ (32 entries) plus dispatch
	// stalls must bound what is in flight; lsqFullStalls should trigger
	// with a tiny LQ.
	src := `
_start:
	la   t0, arr
	li   t1, 512
lloop:
	lw   t2, 0(t0)
	lw   t3, 4(t0)
	lw   t4, 8(t0)
	lw   t5, 12(t0)
	addi t0, t0, 16
	addi t1, t1, -1
	bne  t1, x0, lloop
	ecall
arr:
	.space 8192
`
	rig := buildRig(t, "o3", src, true)
	runRig(t, rig)

	// Rebuild with a 2-entry LQ and verify the stall counter fires.
	tiny := DefaultO3Config()
	tiny.LQEntries = 2
	tiny.SQEntries = 2
	r2 := buildRigO3(t, src, tiny)
	runRig(t, r2)
	o3 := r2.cpu.(*O3CPU)
	if o3.lsqFullStall.Count() == 0 {
		t.Fatal("tiny LQ never caused a dispatch stall")
	}
}

// buildRigO3 is buildRig for the O3 model with a custom geometry.
func buildRigO3(t *testing.T, src string, ocfg O3Config) *rig {
	t.Helper()
	return buildRigWith(t, func(sys *sim.System, cfg Config) CPU { return NewO3CPU(sys, cfg, ocfg) }, src, true)
}

func TestO3TinyROBStalls(t *testing.T) {
	tiny := DefaultO3Config()
	tiny.ROBEntries = 4
	tiny.IQEntries = 2
	r := buildRigO3(t, wideILP, tiny)
	runRig(t, r)
	o3 := r.cpu.(*O3CPU)
	if o3.robFullStall.Count() == 0 && o3.iqFullStall.Count() == 0 {
		t.Fatal("tiny ROB/IQ never stalled dispatch")
	}
	// And the machine still computes the right answer: x18=2000, x25=16000.
	if got := r.cpu.Core().ReadReg(10); got != 2000+16000 {
		t.Fatalf("a0 = %d", got)
	}
}

func TestStatsRegistryExposesPipelineCounters(t *testing.T) {
	r := buildRig(t, "o3", wideILP, true)
	runRig(t, r)
	for _, name := range []string{
		"cpu0.committedInsts", "cpu0.numCycles", "cpu0.squashes",
		"cpu0.robFullStalls", "cpu0.bpLookups", "cpu0.bpMispredicts",
		"sys.l1i.hits", "sys.l2.misses", "sys.dram.reads",
	} {
		if r.sys.Stats().Lookup(name) == nil {
			t.Errorf("stat %q missing", name)
		}
	}
}

// fetchLog is an instruction port that records the address of every fetch
// sent while on is set.
type fetchLog struct {
	mem.Port
	on    bool
	addrs []uint32
}

func (p *fetchLog) SendTiming(acc mem.Access, done func()) {
	if p.on {
		p.addrs = append(p.addrs, acc.Addr)
	}
	p.Port.SendTiming(acc, done)
}

// TestParkedRedirectSquashesFrontEnd: SetPC on a parked core must squash
// the buffered front end, so that the core resumes on the new stream and
// fetches nothing else. Without the core's redirect hook the buffered old
// stream is dropped as wrong-path and fetch follows the old stream's
// predicted loop forever: the livelock PR 8 found, which before this test
// only TestMTSmoke's 4-core Minor run caught. A spawn is this: park, aim
// the core at the thread's entry, unpark. The old stream is a chain of
// dependent divides, which stalls issue and so keeps the buffer full.
func TestParkedRedirectSquashesFrontEnd(t *testing.T) {
	const src = `
_start:
	li   t1, 3
spin:
	div  t0, t0, t1
	j    spin
thread:
	li   a0, 42
	ecall
`
	for _, model := range []string{"minor", "o3"} {
		t.Run(model, func(t *testing.T) {
			newCPU, err := Model(model)
			if err != nil {
				t.Fatal(err)
			}
			log := &fetchLog{}
			r := buildRigWith(t, func(sys *sim.System, cfg Config) CPU {
				log.Port = IdealPort{Sys: sys, Latency: sim.Nanosecond}
				cfg.IPort = log
				return newCPU(sys, cfg)
			}, src, false)
			var fe *frontEnd
			switch c := r.cpu.(type) {
			case *MinorCPU:
				fe = &c.frontEnd
			case *O3CPU:
				fe = &c.frontEnd
			}
			core, thread := r.cpu.Core(), r.prog.Symbols["thread"]
			r.sys.Schedule(sim.NewEvent("park", 0, core.Park), 200*sim.Nanosecond)
			r.sys.Schedule(sim.NewEvent("spawn", 0, func() {
				if len(fe.buffer) != fe.depth {
					t.Errorf("parked with %d of %d buffer entries, want a full buffer", len(fe.buffer), fe.depth)
				}
				for _, mi := range fe.buffer {
					if mi.pc >= thread {
						t.Errorf("buffered %#x before the redirect: not the old stream", mi.pc)
					}
				}
				log.on = true
				core.SetPC(thread)
				core.Unpark()
			}), 300*sim.Nanosecond)
			res := r.sys.Run(100*sim.Microsecond, 0)
			if res.Status != sim.ExitRequested || res.ExitCode != 42 {
				t.Fatalf("redirected core did not run the thread: %v, exit %d, %d fetches after the redirect",
					res.Status, res.ExitCode, len(log.addrs))
			}
			if len(log.addrs) == 0 {
				t.Fatal("no fetch after the redirect")
			}
			for _, a := range log.addrs {
				if a < thread {
					t.Fatalf("fetched %#x of the old stream after the redirect to %#x", a, thread)
				}
			}
		})
	}
}
