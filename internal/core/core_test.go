package core_test

import (
	"math"
	"strings"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/isa"
	"gem5prof/internal/platform"
	"gem5prof/internal/sim"
)

func TestRunGuestDefaults(t *testing.T) {
	res, err := core.RunGuest(core.GuestConfig{Workload: "sieve", Scale: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ChecksumOK {
		t.Fatalf("checksum %#x want %#x", uint32(res.ExitCode), res.Expected)
	}
	if res.Stats == nil || res.HostEvents == 0 || res.SimTicks == 0 {
		t.Fatal("result incomplete")
	}
}

// countingTracer counts what a build takes from its tracer.
type countingTracer struct {
	sim.NopTracer
	funcs, allocs int
}

func (t *countingTracer) RegisterFunc(name string, codeBytes int, flags sim.FuncFlags) sim.FuncID {
	t.funcs++
	return t.NopTracer.RegisterFunc(name, codeBytes, flags)
}

func (t *countingTracer) AllocData(name string, bytes uint64) uint64 {
	t.allocs++
	return t.NopTracer.AllocData(name, bytes)
}

// TestRunGuestErrors: every config error is named, and is
// raised before the System, guest RAM or tracer arena are built — the
// tracer of a rejected config has been asked for nothing.
func TestRunGuestErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  core.GuestConfig
		want string
	}{
		{"unknown workload", core.GuestConfig{Workload: "nope"}, `unknown workload "nope"`},
		{"unknown FS workload", core.GuestConfig{Mode: core.FS, Workload: "nope"}, `unknown workload "nope"`},
		{"unknown CPU", core.GuestConfig{Workload: "sieve", CPU: "vliw"}, `unknown CPU model "vliw"`},
		{"SE boot-exit", core.GuestConfig{BootExit: true, Mode: core.SE}, "boot-exit requires FS mode"},
		{"65 cores", core.GuestConfig{Workload: "dotprod_mt", Cores: 65}, "core: 65 cores: a guest has at most 64"},
	} {
		tr := &countingTracer{NopTracer: *sim.NewNopTracer()}
		_, err := core.BuildGuest(c.cfg, tr)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		if tr.funcs != 0 || tr.allocs != 0 {
			t.Errorf("%s: rejected after %d RegisterFunc and %d AllocData calls", c.name, tr.funcs, tr.allocs)
		}
		if _, err := core.RunGuest(c.cfg); err == nil {
			t.Errorf("%s: RunGuest accepted the config", c.name)
		}
	}
	// The counter does count: an accepted config registers and allocates.
	tr := &countingTracer{NopTracer: *sim.NewNopTracer()}
	if _, err := core.BuildGuest(core.GuestConfig{Mode: core.FS, BootExit: true, Workload: "ignored"}, tr); err != nil {
		t.Fatalf("FS boot-exit ignores the workload name, got %v", err)
	}
	if tr.funcs == 0 || tr.allocs == 0 {
		t.Errorf("accepted build made %d RegisterFunc and %d AllocData calls", tr.funcs, tr.allocs)
	}

	// A caller's program runs in SE mode in place of a workload.
	prog, err := isa.Assemble("\t.org 0x1000\n_start:\n\tli a0, 7\n\tebreak\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  core.GuestConfig
		want string
	}{
		{"program beside a workload", core.GuestConfig{Workload: "sieve"}, `core: a program guest names no workload, got "sieve"`},
		{"FS program", core.GuestConfig{Mode: core.FS}, "core: a program guest runs in SE mode, not fs"},
		{"boot-exit program", core.GuestConfig{BootExit: true}, "core: boot-exit requires FS mode"},
		{"FS boot-exit program", core.GuestConfig{Mode: core.FS, BootExit: true}, "core: a program guest runs in SE mode, not fs"},
	} {
		if _, err := core.BuildProgram(c.cfg, prog); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	core.DropStores()
	g, err := core.BuildProgram(core.GuestConfig{CPU: core.O3}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := g.Run(); err != nil || res.ExitCode != 7 || !res.ChecksumOK || res.Expected != 0 {
		t.Errorf("program guest: %+v, %v; want exit 7 with no reference checksum", res, err)
	}
	if _, _, n := core.StoreLens(); n != 0 {
		t.Errorf("a program guest left %d images in the store", n)
	}
}

func TestSessionProducesConsistentReport(t *testing.T) {
	res, err := core.RunSession(core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.Timing, Workload: "sieve", Scale: 1024},
		Host:  platform.IntelXeon(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Guest.ChecksumOK {
		t.Fatal("guest result wrong under co-simulation")
	}
	if res.SimSeconds() <= 0 {
		t.Fatal("no host time")
	}
	l1 := res.Host.Level1
	sum := l1.Retiring + l1.FrontEndBound + l1.BadSpeculation + l1.BackEndBound
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("top-down sums to %v", sum)
	}
	if res.TextBytes == 0 || res.NumFuncs == 0 || res.CalledFuncs == 0 {
		t.Fatal("code model summary empty")
	}
	if res.CalledFuncs > res.NumFuncs {
		t.Fatal("called > registered")
	}
}

func TestSessionDeterminism(t *testing.T) {
	run := func() float64 {
		res, err := core.RunSession(core.SessionConfig{
			Guest: core.GuestConfig{CPU: core.Atomic, Workload: "canneal", Scale: 128},
			Host:  platform.M1Pro(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Host.Cycles
	}
	if run() != run() {
		t.Fatal("co-simulation nondeterministic")
	}
}

func TestSessionCosimDoesNotPerturbGuest(t *testing.T) {
	pure, err := core.RunGuest(core.GuestConfig{CPU: core.O3, Workload: "dedup", Scale: 2048})
	if err != nil {
		t.Fatal(err)
	}
	cosim, err := core.RunSession(core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.O3, Workload: "dedup", Scale: 2048},
		Host:  platform.IntelXeon(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pure.SimTicks != cosim.Guest.SimTicks || pure.Insts != cosim.Guest.Insts ||
		pure.ExitCode != cosim.Guest.ExitCode {
		t.Fatalf("host model perturbed the guest: %v/%v vs %v/%v",
			pure.SimTicks, pure.Insts, cosim.Guest.SimTicks, cosim.Guest.Insts)
	}
}

func TestSessionM1FasterThanXeon(t *testing.T) {
	gc := core.GuestConfig{CPU: core.O3, Workload: "water_nsquared", Scale: 40}
	xeon, err := core.RunSession(core.SessionConfig{Guest: gc, Host: platform.IntelXeon()})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := core.RunSession(core.SessionConfig{Guest: gc, Host: platform.M1Pro()})
	if err != nil {
		t.Fatal(err)
	}
	ratio := xeon.SimSeconds() / m1.SimSeconds()
	if ratio < 1.3 || ratio > 5 {
		t.Fatalf("M1 advantage %.2fx outside the paper's band", ratio)
	}
}

func TestSessionCoRunSlower(t *testing.T) {
	gc := core.GuestConfig{CPU: core.Atomic, Workload: "sieve", Scale: 1536}
	single, err := core.RunSession(core.SessionConfig{Guest: gc, Host: platform.IntelXeon()})
	if err != nil {
		t.Fatal(err)
	}
	corun, err := core.RunSession(core.SessionConfig{
		Guest: gc, Host: platform.IntelXeon(),
		Scenario: platform.Scenario{Procs: 40, SMT: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if corun.SimSeconds() <= single.SimSeconds() {
		t.Fatalf("SMT co-run (%.5f) should be slower than single (%.5f)",
			corun.SimSeconds(), single.SimSeconds())
	}
}

func TestSessionProfiler(t *testing.T) {
	res, err := core.RunSession(core.SessionConfig{
		Guest:   core.GuestConfig{CPU: core.Atomic, Workload: "sieve", Scale: 1024},
		Host:    platform.IntelXeon(),
		Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prof == nil {
		t.Fatal("profiler missing")
	}
	top := res.Prof.Top(5)
	if len(top) != 5 || top[0].Cycles <= 0 {
		t.Fatalf("top = %+v", top)
	}
	if !strings.Contains(res.Prof.Render(3), "%CPU") {
		t.Fatal("render malformed")
	}
	cdf := res.Prof.CDF(50)
	if cdf[len(cdf)-1] > 1.000001 {
		t.Fatal("CDF exceeds 1")
	}
}

func TestSessionO3BuildFaster(t *testing.T) {
	gc := core.GuestConfig{CPU: core.Atomic, Workload: "sieve", Scale: 2048}
	base, err := core.RunSession(core.SessionConfig{Guest: gc, Host: platform.IntelXeon()})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.RunSession(core.SessionConfig{
		Guest: gc, Host: platform.IntelXeon(),
		HostCode: hostmodel.Config{SizeFactor: 0.97},
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt.SimSeconds() >= base.SimSeconds() {
		t.Fatalf("-O3 build (%.5f) should beat baseline (%.5f)",
			opt.SimSeconds(), base.SimSeconds())
	}
}

func TestFSBootSession(t *testing.T) {
	res, err := core.RunSession(core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.Timing, Mode: core.FS, BootExit: true, BootKBs: 8},
		Host:  platform.M1Ultra(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Guest.Stdout, "g5 kernel") {
		t.Fatal("no boot banner")
	}
	if res.Guest.ExitReason != "guest poweroff" {
		t.Fatalf("reason = %q", res.Guest.ExitReason)
	}
}
