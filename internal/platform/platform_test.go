package platform

import (
	"strings"
	"testing"

	"gem5prof/internal/uarch"
)

func TestAllPlatformsValidate(t *testing.T) {
	for _, cfg := range TableIIPlatforms() {
		cfg := cfg
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	fb := FireSimBase()
	if err := fb.Validate(); err != nil {
		t.Errorf("firesim base: %v", err)
	}
}

func TestTableIIValues(t *testing.T) {
	x := IntelXeon()
	if x.PageBytes != 4096 || x.L1I.SizeBytes != 32<<10 || x.L1I.LineBytes != 64 {
		t.Fatal("Xeon geometry wrong")
	}
	if x.DSBUops == 0 {
		t.Fatal("Xeon needs a uop cache")
	}
	p := M1Pro()
	if p.PageBytes != 16<<10 || p.L1I.SizeBytes != 192<<10 || p.L1D.SizeBytes != 128<<10 {
		t.Fatal("M1 L1 geometry wrong")
	}
	if p.L1I.LineBytes != 128 {
		t.Fatal("M1 line size wrong")
	}
	if p.DSBUops != 0 {
		t.Fatal("M1 has no uop cache")
	}
	u := M1Ultra()
	if u.LLC.SizeBytes != 96<<20 || u.L2.SizeBytes != 48<<20 {
		t.Fatal("M1 Ultra cache sizes wrong")
	}
	// The VIPT arithmetic of the paper: M1's 192KB L1I needs 12 ways with
	// 16KB pages; Xeon's 32KB needs 8 with 4KB pages.
	if int(p.L1I.SizeBytes)/p.L1I.Ways != int(p.PageBytes) {
		t.Fatal("M1 L1I way size != page size")
	}
	if int(x.L1I.SizeBytes)/x.L1I.Ways != int(x.PageBytes) {
		t.Fatal("Xeon L1I way size != page size")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Intel_Xeon", "xeon", "M1_Pro", "m1pro", "M1_Ultra", "m1ultra"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("power10"); err == nil {
		t.Error("unknown platform resolved")
	}
}

func TestFireSimSweepGeometriesValidate(t *testing.T) {
	// Every Fig. 14 geometry honors the VIPT constraint (sets fixed at 64).
	for _, g := range [][6]int{
		{8, 2, 8, 2, 512, 8},
		{16, 4, 16, 4, 512, 8},
		{32, 8, 32, 8, 512, 8},
		{64, 16, 64, 16, 512, 8},
		{8, 2, 8, 2, 1024, 8},
		{8, 2, 8, 2, 2048, 8},
	} {
		cfg := FireSimRocket(g[0], g[1], g[2], g[3], g[4], g[5])
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: %v", g, err)
		}
		if cfg.L1I.Sets() != 64 {
			t.Errorf("%v: sets = %d, want 64 (VIPT)", g, cfg.L1I.Sets())
		}
		if cfg.LLC.SizeBytes != 0 {
			t.Errorf("%v: rocket host must not have an LLC", g)
		}
	}
}

func TestContendPartitionsLLC(t *testing.T) {
	x := IntelXeon()
	c := Contend(x, Scenario{Procs: 20})
	if c.LLC.SizeBytes >= x.LLC.SizeBytes {
		t.Fatal("LLC not partitioned")
	}
	if c.LLC.Sets() != x.LLC.Sets() {
		t.Fatal("partitioning must keep the set count")
	}
	if c.L1I.SizeBytes != x.L1I.SizeBytes {
		t.Fatal("co-running must not shrink private L1s without SMT")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContendSMT(t *testing.T) {
	x := IntelXeon()
	s := Contend(x, Scenario{Procs: 40, SMT: true})
	if s.L1I.SizeBytes != x.L1I.SizeBytes/2 || s.L1D.SizeBytes != x.L1D.SizeBytes/2 {
		t.Fatal("SMT must halve the L1s")
	}
	if s.ITLBEntries != x.ITLBEntries/2 || s.DSBUops != x.DSBUops/2 {
		t.Fatal("SMT must halve iTLB and DSB")
	}
	if s.DecodeWidth >= x.DecodeWidth {
		t.Fatal("SMT must share decode bandwidth")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Name, "SMT") {
		t.Fatal("name not annotated")
	}
}

func TestContendM1PartitionsClusterL2(t *testing.T) {
	p := M1Pro()
	c := Contend(p, Scenario{Procs: 4})
	if c.L2.SizeBytes >= p.L2.SizeBytes {
		t.Fatal("M1 cluster L2 not partitioned")
	}
}

func TestShrinkWaysFloor(t *testing.T) {
	g := uarch.CacheGeom{SizeBytes: 1 << 20, Ways: 4, LineBytes: 64}
	s := shrinkWays(g, 100)
	if s.Ways != 1 {
		t.Fatalf("ways = %d", s.Ways)
	}
	if s.Sets() != g.Sets() {
		t.Fatal("set count changed")
	}
}

func TestTables(t *testing.T) {
	t1 := TableI()
	for _, want := range []string{"4GHz", "8-width", "TournamentBP/4096", "48KB(I), 32KB(D)", "192/64/32/32"} {
		if !strings.Contains(t1, want) {
			t.Errorf("TableI missing %q:\n%s", want, t1)
		}
	}
	t2 := TableII()
	for _, want := range []string{"Intel_Xeon", "M1_Pro", "M1_Ultra", "192KB(I)+128KB(D)", "4KB", "16KB", "819.2 GB/s"} {
		if !strings.Contains(t2, want) {
			t.Errorf("TableII missing %q:\n%s", want, t2)
		}
	}
}

// TestEveryScenarioValidates: every host the experiments build, under every
// co-run scenario they and cmd/profgem5 can ask for, is a geometry
// uarch.NewMachine accepts: partitioning divides ways and capacities, and
// none of the quotients may leave a level without a power-of-two set count
// or the uop cache without a set.
func TestEveryScenarioValidates(t *testing.T) {
	hosts := append(TableIIPlatforms(), FireSimBase(),
		FireSimRocket(8, 2, 8, 2, 512, 8), FireSimRocket(16, 4, 16, 4, 512, 8),
		FireSimRocket(32, 8, 32, 8, 1024, 8), FireSimRocket(64, 16, 64, 16, 512, 8),
		FireSimRocket(8, 2, 8, 2, 2048, 8))
	procs := []int{1, 2, 3, 4, 5, 6, 7, 8, M1UltraPerfCores, XeonPhysicalCores, XeonHardwareThreads}
	for _, host := range hosts {
		for _, p := range procs {
			for _, smt := range []bool{false, true} {
				cfg := Contend(host, Scenario{Procs: p, SMT: smt})
				if err := cfg.Validate(); err != nil {
					t.Errorf("%s procs=%d smt=%v: %v", host.Name, p, smt, err)
				}
			}
		}
	}
	// The smallest of them builds: one LLC way, four L1 ways, 768 uops.
	uarch.NewMachine(Contend(IntelXeon(), Scenario{Procs: XeonHardwareThreads, SMT: true}))
}
