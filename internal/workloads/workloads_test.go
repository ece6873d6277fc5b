package workloads_test

import (
	"strings"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/workloads"
)

func TestRegistry(t *testing.T) {
	names := workloads.Names()
	want := []string{
		"blackscholes", "canneal", "dedup", "dotprod_mt", "fmm",
		"histogram_mt", "matmul_mt", "ocean_cp", "ocean_ncp", "sieve",
		"streamcluster", "water_nsquared", "water_spatial",
	}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	if len(workloads.PARSEC()) != 9 {
		t.Fatalf("PARSEC count = %d", len(workloads.PARSEC()))
	}
	if _, ok := workloads.ByName("sieve"); !ok {
		t.Fatal("sieve missing")
	}
	if _, ok := workloads.ByName("doom"); ok {
		t.Fatal("phantom workload")
	}
}

// smallScale returns a fast problem size per workload for the cross-model
// matrix test.
func smallScale(name string) int {
	switch name {
	case "sieve":
		return 2048
	case "canneal":
		return 256
	case "dedup":
		return 2048
	case "blackscholes":
		return 256
	case "streamcluster":
		return 96
	case "water_nsquared":
		return 48
	case "water_spatial":
		return 64
	case "ocean_cp", "ocean_ncp":
		return 24
	case "fmm":
		return 96
	}
	return 64
}

// TestAllWorkloadsAtomicChecksum runs every workload at its default scale on
// the Atomic CPU and verifies the guest result against the Go reference.
func TestAllWorkloadsAtomicChecksum(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			res, err := core.RunGuest(core.GuestConfig{
				CPU:      core.Atomic,
				Mode:     core.SE,
				Workload: name,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.ChecksumOK {
				t.Fatalf("checksum mismatch: got %#x, want %#x",
					uint32(res.ExitCode), res.Expected)
			}
			if res.Insts < 1000 {
				t.Fatalf("suspiciously few instructions: %d", res.Insts)
			}
			t.Logf("%s: %d insts, %d ticks", name, res.Insts, res.SimTicks)
		})
	}
}

// TestAllWorkloadsAllModels is the big cross-product: every workload at a
// reduced scale on every CPU model, with caches, all matching the
// reference checksum and committing identical instruction counts.
func TestAllWorkloadsAllModels(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			var insts []uint64
			for _, model := range core.AllCPUModels {
				res, err := core.RunGuest(core.GuestConfig{
					CPU:      model,
					Mode:     core.SE,
					Workload: name,
					Scale:    smallScale(name),
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, model, err)
				}
				if !res.ChecksumOK {
					t.Fatalf("%s/%s: checksum got %#x want %#x",
						name, model, uint32(res.ExitCode), res.Expected)
				}
				insts = append(insts, res.Insts)
			}
			for i := 1; i < len(insts); i++ {
				if insts[i] != insts[0] {
					t.Fatalf("inst counts diverge across models: %v", insts)
				}
			}
		})
	}
}

func TestBootExit(t *testing.T) {
	for _, model := range core.AllCPUModels {
		t.Run(string(model), func(t *testing.T) {
			res, err := core.RunGuest(core.GuestConfig{
				CPU:      model,
				Mode:     core.FS,
				BootExit: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ExitCode != 0 {
				t.Fatalf("boot-exit code = %d", res.ExitCode)
			}
			if !strings.Contains(res.Stdout, "g5 kernel") {
				t.Fatalf("banner missing from UART output %q", res.Stdout)
			}
			if res.ExitReason != "guest poweroff" {
				t.Fatalf("exit reason = %q", res.ExitReason)
			}
			if res.Insts < 10_000 {
				t.Fatalf("boot too short: %d insts", res.Insts)
			}
		})
	}
}

func TestFSWorkload(t *testing.T) {
	// Run a real workload as FS init on two models.
	for _, model := range []core.CPUModel{core.Atomic, core.O3} {
		res, err := core.RunGuest(core.GuestConfig{
			CPU:      model,
			Mode:     core.FS,
			Workload: "sieve",
			Scale:    2048,
		})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if !res.ChecksumOK {
			t.Fatalf("%s: FS checksum got %#x want %#x", model, uint32(res.ExitCode), res.Expected)
		}
	}
}

func TestFSMultiCore(t *testing.T) {
	res, err := core.RunGuest(core.GuestConfig{
		CPU:      core.Atomic,
		Mode:     core.FS,
		BootExit: true,
		Cores:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("quad-core boot-exit = %d", res.ExitCode)
	}
	// The kernel parks the extra harts: an FS guest has no coherence
	// directory, whatever its core count.
	if res.Stats.Lookup("sys.dir.getS") != nil {
		t.Fatal("FS guest built a coherence directory")
	}
}

func TestCalendarQueueBackendMatchesHeap(t *testing.T) {
	run := func(cal bool) *core.GuestResult {
		res, err := core.RunGuest(core.GuestConfig{
			CPU:           core.Timing,
			Mode:          core.SE,
			Workload:      "sieve",
			Scale:         1024,
			CalendarQueue: cal,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	h := run(false)
	c := run(true)
	if h.SimTicks != c.SimTicks || h.Insts != c.Insts || h.ExitCode != c.ExitCode {
		t.Fatalf("backends diverge: heap(%d,%d) calendar(%d,%d)",
			h.SimTicks, h.Insts, c.SimTicks, c.Insts)
	}
}

func TestGuestTLBsSlowerButCorrect(t *testing.T) {
	base, err := core.RunGuest(core.GuestConfig{
		CPU: core.Timing, Mode: core.SE, Workload: "sieve", Scale: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	tlb, err := core.RunGuest(core.GuestConfig{
		CPU: core.Timing, Mode: core.SE, Workload: "sieve", Scale: 1024,
		GuestTLBs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tlb.ChecksumOK {
		t.Fatal("guest TLBs broke architectural results")
	}
	if tlb.SimTicks <= base.SimTicks {
		t.Fatalf("TLB walks should cost guest time: %d vs %d", tlb.SimTicks, base.SimTicks)
	}
	if tlb.Stats.Lookup("sys.itb0.misses") == nil {
		t.Fatal("TLB stats missing")
	}
}

func TestIdealMemoryFasterGuest(t *testing.T) {
	cached, err := core.RunGuest(core.GuestConfig{
		CPU: core.Timing, Mode: core.SE, Workload: "sieve", Scale: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := core.RunGuest(core.GuestConfig{
		CPU: core.Timing, Mode: core.SE, Workload: "sieve", Scale: 1024,
		IdealMemory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ideal.SimTicks >= cached.SimTicks {
		t.Fatalf("ideal memory (%d) should be faster than caches (%d)",
			ideal.SimTicks, cached.SimTicks)
	}
}

func TestWorkloadScaleValidation(t *testing.T) {
	for _, name := range workloads.Names() {
		spec, _ := workloads.ByName(name)
		if _, _, err := spec.Build(1); err == nil {
			t.Errorf("%s: scale 1 should fail", name)
		}
	}
	// canneal requires a power of two.
	spec, _ := workloads.ByName("canneal")
	if _, _, err := spec.Build(100); err == nil {
		t.Error("canneal: non-power-of-two scale should fail")
	}
}

func TestKernelBuild(t *testing.T) {
	cfg := workloads.DefaultKernelConfig()
	k, err := workloads.BuildKernel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k.Base != workloads.KernelBase || k.Entry != workloads.KernelBase {
		t.Fatalf("kernel base/entry = %#x/%#x", k.Base, k.Entry)
	}
	// Zero-value config gets usable defaults.
	if _, err := workloads.BuildKernel(workloads.KernelConfig{}); err != nil {
		t.Fatal(err)
	}
}
