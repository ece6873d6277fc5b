// Package core is the paper's methodology as a library: it builds complete
// guest simulations (the g5 simulator) and co-simulates their execution on
// modeled host platforms, producing the profiling reports every experiment
// in the paper is derived from.
package core

import (
	"fmt"
	"io"

	"gem5prof/internal/cpu"
	"gem5prof/internal/guest"
	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
	"gem5prof/internal/sysemu"
	"gem5prof/internal/workloads"
)

// CPUModel selects the guest CPU model, mirroring the paper's four types.
type CPUModel string

// Guest CPU models.
const (
	Atomic CPUModel = "atomic"
	Timing CPUModel = "timing"
	Minor  CPUModel = "minor"
	O3     CPUModel = "o3"
)

// AllCPUModels lists the models in the paper's order of increasing detail.
var AllCPUModels = []CPUModel{Atomic, Timing, Minor, O3}

// Mode selects the simulation mode.
type Mode string

// Simulation modes.
const (
	SE Mode = "se" // system-call emulation
	FS Mode = "fs" // full system with the mini-kernel
)

// GuestConfig describes one g5 simulation.
type GuestConfig struct {
	CPU      CPUModel
	Mode     Mode
	Workload string // workload name; ignored for boot-exit
	// Scale overrides the workload's default problem size when nonzero.
	Scale int
	// BootExit runs FS boot with no init app (paper's Boot-Exit workload).
	BootExit bool
	// BootKBs overrides how much memory the FS kernel initializes at boot
	// (scales boot length); 0 uses the kernel default.
	BootKBs int
	// Cores is the simulated core count (default 1, which builds the
	// single-core machine). In SE mode core 0 enters the workload at its
	// entry point and cores 1..Cores-1 start parked until the SysSpawn
	// threading syscall (internal/sysemu) dispatches them; more than one
	// core puts a MESI directory controller between the per-core L1 data
	// caches and the shared L2 and enables the threading syscall surface.
	// In FS mode every core boots the kernel, which parks the extra harts;
	// there is no directory and no thread table. At most maxCores.
	Cores int
	// IdealMemory disables the cache model (ideal 1-cycle memory).
	IdealMemory bool
	// GuestTLBs inserts guest instruction/data TLBs in front of the L1s
	// (gem5's ARM FS configuration).
	GuestTLBs bool
	// Seed is read by nothing: no model draws random numbers, so a guest or
	// session result is a pure function of its config minus Seed and
	// ExecTrace. simpoint.ConfigPrefix leaves both out of the checkpoint key
	// for that reason and TestCheckpointSeedInvariance pins it. No
	// experiment sets it; the field remains only because bench/ sets it.
	Seed int64
	// CalendarQueue selects the calendar event-queue backend instead of
	// the heap (bit-identical results; TestCalendarQueueMatchesHeap). No
	// harness sets it; it stays because bench/ compiles against it.
	CalendarQueue bool
	// Shards is read by nothing: every guest runs on one event queue
	// (DESIGN.md §15). No experiment sets it; the field remains only
	// because bench/ sets it.
	Shards ShardMode
	// ExecTrace, when non-nil, receives one line per committed instruction
	// on every core (gem5's --debug-flags=Exec).
	ExecTrace io.Writer
}

// Every guest has the same machine around its cores: memBytes of DRAM (like
// the paper's small simulated memories relative to the host), cpu.ClockPeriod's
// 1 GHz clock, and mem.DefaultHierarchyConfig's caches unless IdealMemory.
// maxCores is the most cores a guest has: the coherence directory keeps one
// sharer bit per core in a word.
const (
	memBytes = 16 << 20
	maxCores = 64
)

// threaded reports whether a normalized config is a multicore SE guest: the
// build with a coherence directory and a thread table.
func (c *GuestConfig) threaded() bool { return c.Mode == SE && c.Cores > 1 }

// Normalized returns the config with every defaultable zero field replaced
// by its default — the exact config a build would run. Cache-key derivation
// (internal/simpoint) hashes the normalized form so that a zero field and
// its explicitly spelled default produce the same key.
func (c GuestConfig) Normalized() GuestConfig { return c.withDefaults() }

func (c *GuestConfig) withDefaults() GuestConfig {
	out := *c
	if out.CPU == "" {
		out.CPU = Atomic
	}
	if out.Mode == "" {
		out.Mode = SE
	}
	if out.Cores <= 0 {
		out.Cores = 1
	}
	return out
}

// GuestResult reports one completed guest simulation.
type GuestResult struct {
	// SimTicks is the simulated guest time.
	SimTicks sim.Tick
	// Insts is the committed instruction count (all cores).
	Insts uint64
	// ExitCode is the workload's exit value (its checksum).
	ExitCode int
	// ExitReason describes how the run ended.
	ExitReason string
	// ChecksumOK reports whether ExitCode matched the workload's reference
	// model (always true for boot-exit).
	ChecksumOK bool
	// Expected is the reference checksum.
	Expected uint32
	// Stdout is SE-mode standard output or the FS UART transcript.
	Stdout string
	// Stats exposes the full guest statistics registry.
	Stats *sim.Registry
	// HostEvents is the number of simulator events serviced (the event
	// queue's workload).
	HostEvents uint64
	// Plan is how the guest executed. It is not part of the modeled
	// outcome: every plan produces the same statistics.
	Plan ExecPlan
}

// GuestSystem is a fully constructed, not-yet-run guest simulation.
type GuestSystem struct {
	Cfg    GuestConfig
	Sys    *sim.System
	Mem    *guest.Memory
	CPUs   []cpu.CPU
	Hier   *mem.MultiHierarchy // nil when IdealMemory
	SE     *sysemu.SEEnv       // SE mode only
	FS     *sysemu.Platform    // FS mode only
	plan   ExecPlan
	expect uint32
	hasRef bool
}

// BuildGuest constructs the full guest system for cfg, mirrored onto tracer
// (use sim.NewNopTracer() for pure guest runs), with every CPU started at
// the workload entry point.
func BuildGuest(cfg GuestConfig, tracer sim.Tracer) (*GuestSystem, error) {
	return startGuest(cfg, nil, newExecPlan(SessionConfig{Guest: cfg, Pipeline: PipelineOff}, false), tracer)
}

// BuildProgram is BuildGuest for the caller's SE program in place of a
// registered workload, with no host tracing: cfg names no workload, and the
// guest has no reference checksum. prog is predecoded for this guest alone,
// not kept in the images store.
func BuildProgram(cfg GuestConfig, prog *isa.Program) (*GuestSystem, error) {
	return startGuest(cfg, prog, newExecPlan(SessionConfig{Guest: cfg, Pipeline: PipelineOff}, false), sim.NewNopTracer())
}

// startGuest is BuildGuest (or, for a non-nil prog, BuildProgram) under an
// already resolved plan.
func startGuest(cfg GuestConfig, prog *isa.Program, plan ExecPlan, tracer sim.Tracer) (*GuestSystem, error) {
	g, entry, err := buildGuest(cfg, prog, plan, tracer)
	if err != nil {
		return nil, err
	}
	for _, c := range g.CPUs {
		c.Start(entry)
	}
	return g, nil
}

// loadWorkload loads spec's program at the given scale (0 = the workload's
// default) into ram and returns its image. The program is assembled and
// predecoded the first time a (workload, scale) is asked for and kept in the
// images store: it is read-only once built, and Load copies out of it.
func loadWorkload(spec workloads.Spec, scale int, ram *guest.Memory) (image, error) {
	if scale == 0 {
		scale = spec.DefaultScale
	}
	img, err := storedImage(imageKey{workload: spec.Name, scale: scale}, func() (img image, err error) {
		if img.prog, img.expect, err = spec.Build(scale); err == nil {
			img.dec = isa.Predecode(img.prog)
		}
		return img, err
	})
	if err != nil {
		return image{}, err
	}
	if err := ram.Load(img.prog); err != nil {
		return image{}, err
	}
	return img, nil
}

// loadKernel loads the FS kernel of cfg into ram and returns its program,
// assembled the first time a config is asked for and kept in the images
// store beside the workloads. It is not predecoded: a kernel is a few
// hundred words that run once per boot, and a core fetching from it reads
// guest memory, so that a boot-exit guest has no decoded image.
func loadKernel(cfg workloads.KernelConfig, ram *guest.Memory) (*isa.Program, error) {
	img, err := storedImage(imageKey{kernel: cfg}, func() (image, error) {
		prog, err := workloads.BuildKernel(cfg)
		return image{prog: prog}, err
	})
	if err != nil {
		return nil, err
	}
	if err := ram.Load(img.prog); err != nil {
		return nil, err
	}
	return img.prog, nil
}

// storedImage returns the image under key from the images store, built by
// build and stored the first time key is asked for.
func storedImage(key imageKey, build func() (image, error)) (img image, err error) {
	if have := images.peek(key); len(have) > 0 {
		img = have[0]
	} else if img, err = build(); err != nil {
		return image{}, err
	}
	images.put(key, img, func(o image) bool { return o == img })
	return img, nil
}

// buildGuest constructs the system without starting the CPUs, returning the
// entry point of prog, or of the workload when prog is nil. restoreGuest
// starts them at checkpointed PCs instead.
func buildGuest(cfg GuestConfig, prog *isa.Program, plan ExecPlan, tracer sim.Tracer) (*GuestSystem, uint32, error) {
	cfg = cfg.withDefaults()

	// What a config can name wrongly is rejected before anything is built:
	// a refused config costs no System, no guest RAM and no tracer arena.
	if cfg.Mode == SE && cfg.BootExit {
		return nil, 0, fmt.Errorf("core: boot-exit requires FS mode")
	}
	if cfg.Cores > maxCores {
		return nil, 0, fmt.Errorf("core: %d cores: a guest has at most %d", cfg.Cores, maxCores)
	}
	spec, ok := workloads.ByName(cfg.Workload)
	switch {
	case prog != nil && cfg.Mode != SE:
		return nil, 0, fmt.Errorf("core: a program guest runs in SE mode, not %s", cfg.Mode)
	case prog != nil && cfg.Workload != "":
		return nil, 0, fmt.Errorf("core: a program guest names no workload, got %q", cfg.Workload)
	case prog == nil && !cfg.BootExit && !ok:
		return nil, 0, fmt.Errorf("core: unknown workload %q", cfg.Workload)
	}
	newCPU, err := cpu.Model(string(cfg.CPU))
	if err != nil {
		return nil, 0, fmt.Errorf("core: %w", err)
	}

	var queue sim.Queue = sim.NewHeapQueue()
	if plan.Calendar {
		queue = sim.NewCalendarQueue(1024, cpu.ClockPeriod)
	}
	sys := sim.NewSystemWith(queue, tracer)
	ram := guest.NewMemory(memBytes)
	ram.SetHostBase(tracer.AllocData("guest.ram", memBytes))

	g := &GuestSystem{Cfg: cfg, Sys: sys, Mem: ram, plan: plan}

	// Load the program or workload image and, in FS mode, the kernel that
	// enters it.
	var entry uint32
	var img image
	switch {
	case prog != nil:
		img = image{prog: prog, dec: isa.Predecode(prog)}
		err = ram.Load(prog)
	case !cfg.BootExit:
		img, err = loadWorkload(spec, cfg.Scale, ram)
		g.expect, g.hasRef = img.expect, true
	}
	if err != nil {
		return nil, 0, err
	}
	if img.prog != nil {
		entry = img.prog.Entry
	}
	if cfg.Mode != SE {
		kcfg := workloads.DefaultKernelConfig()
		kcfg.Harts = cfg.Cores
		if cfg.BootKBs > 0 {
			kcfg.BootKBs = cfg.BootKBs
		}
		kcfg.AppEntry = entry
		kern, err := loadKernel(kcfg, ram)
		if err != nil {
			return nil, 0, err
		}
		entry = kern.Entry
	}

	// Environment and functional memory.
	var env cpu.Env
	var fmem cpu.FuncMem
	var sink *sysemu.LateBindSink
	if cfg.Mode == SE {
		se := sysemu.NewSEEnv(sys, ram, workloads.HeapBase, workloads.MmapBase)
		g.SE = se
		env = se
		fmem = ram
	} else {
		sink = &sysemu.LateBindSink{}
		g.FS = sysemu.NewPlatform(sys, ram, sink)
		env = g.FS.Env
		fmem = g.FS.Mem
	}

	// Memory system.
	if !cfg.IdealMemory {
		hcfg := mem.DefaultHierarchyConfig("sys")
		hcfg.GuestTLBs = cfg.GuestTLBs
		hcfg.Directory = cfg.threaded()
		g.Hier = mem.NewMultiHierarchy(sys, hcfg, cfg.Cores)
	}

	// CPUs.
	for i := 0; i < cfg.Cores; i++ {
		ccfg := cpu.Config{
			Name:      fmt.Sprintf("cpu%d", i),
			Mem:       fmem,
			Env:       env,
			HartID:    uint32(i),
			ExecTrace: cfg.ExecTrace,
			Decoded:   img.dec,
		}
		if g.Hier != nil {
			ccfg.IPort = g.Hier.IPort(i)
			ccfg.DPort = g.Hier.DPort(i)
		}
		g.CPUs = append(g.CPUs, newCPU(sys, ccfg))
	}
	if sink != nil {
		sink.Sink = g.CPUs[0].Core()
	}
	if cfg.threaded() {
		// Multicore SE guest: hand the threading syscalls their cores and
		// park the secondaries — only SysSpawn dispatches them.
		cores := make([]*cpu.Core, len(g.CPUs))
		for i, c := range g.CPUs {
			cores[i] = c.Core()
		}
		g.SE.AttachCores(cores)
		for _, c := range cores[1:] {
			c.Park()
		}
	}
	return g, entry, nil
}

// Run executes the guest to completion (or the configured limits) and
// returns the result.
func (g *GuestSystem) Run() (*GuestResult, error) {
	return g.finish(g.Sys.Run(sim.MaxTick, 0))
}

// finish converts a raw run result into a GuestResult, shared by Run and
// the instruction-budgeted runs (RunInsts, interval sessions).
func (g *GuestSystem) finish(res sim.RunResult) (*GuestResult, error) {
	out := &GuestResult{
		SimTicks:   res.Now,
		ExitCode:   res.ExitCode,
		ExitReason: res.ExitReason,
		Stats:      g.Sys.Stats(),
		HostEvents: g.Sys.EventsServiced(),
		Plan:       g.plan,
	}
	for _, c := range g.CPUs {
		out.Insts += c.Core().CommittedInsts()
	}
	if res.Status != sim.ExitRequested {
		return out, fmt.Errorf("core: guest did not exit cleanly: %v after %d events (reason %q)",
			res.Status, res.Events, res.ExitReason)
	}
	if g.SE != nil {
		out.Stdout = g.SE.Stdout()
	}
	if g.FS != nil {
		out.Stdout = g.FS.UART.Output()
	}
	out.Expected = g.expect
	// A budget stop ends the run mid-workload, so there is no checksum to
	// verify; report it as passing rather than comparing the budget code.
	if res.ExitReason == InstBudgetReason {
		out.ChecksumOK = true
		return out, nil
	}
	out.ChecksumOK = !g.hasRef || uint32(out.ExitCode) == g.expect
	return out, nil
}

// RunGuest builds and runs a guest in one call with no host tracing.
func RunGuest(cfg GuestConfig) (*GuestResult, error) {
	g, err := BuildGuest(cfg, sim.NewNopTracer())
	if err != nil {
		return nil, err
	}
	return g.Run()
}
