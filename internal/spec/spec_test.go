package spec

import (
	"testing"

	"gem5prof/internal/platform"
	"gem5prof/internal/uarch"
)

func TestNamesAndLookup(t *testing.T) {
	names := Names()
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		p, err := ByName(n)
		if err != nil || p.Name != n {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
	if _, err := ByName("600.perlbench_s"); err == nil {
		t.Error("unknown benchmark resolved")
	}
}

// price is the report of p's replay of blocks blocks on a machine of host.
func price(p Profile, host uarch.Config, blocks int) uarch.Report {
	c := p.Run(uarch.NewMachine(host), blocks)
	return uarch.Price(&host, &c)
}

func TestCharacterContrast(t *testing.T) {
	// The paper's reason for picking these three: x264 has the highest
	// IPC, mcf the lowest (heavily back-end bound), deepsjeng misses the
	// LLC hard.
	reports := map[string]uarch.Report{}
	for _, name := range Names() {
		reports[name] = price(profiles[name], platform.IntelXeon(), 120_000)
	}
	x264 := reports["525.x264_r"]
	mcf := reports["505.mcf_r"]
	djs := reports["531.deepsjeng_r"]

	if !(x264.IPC > djs.IPC && djs.IPC >= mcf.IPC) {
		t.Fatalf("IPC ordering wrong: x264 %.2f deepsjeng %.2f mcf %.2f",
			x264.IPC, djs.IPC, mcf.IPC)
	}
	if mcf.Level1.BackEndBound < 0.4 {
		t.Fatalf("mcf back-end bound %.2f, want heavy", mcf.Level1.BackEndBound)
	}
	if x264.Level1.Retiring < 0.4 {
		t.Fatalf("x264 retiring %.2f, want high", x264.Level1.Retiring)
	}
	if djs.DRAMBytes <= x264.DRAMBytes {
		t.Fatal("deepsjeng should move far more DRAM traffic than x264")
	}
	// SPEC loops live in the uop cache in a way gem5 never does.
	if x264.DSBCoverage < 0.8 {
		t.Fatalf("x264 DSB coverage %.2f, want high", x264.DSBCoverage)
	}
}

func TestDeterminism(t *testing.T) {
	p, _ := ByName("505.mcf_r")
	c1 := p.Run(uarch.NewMachine(platform.IntelXeon()), 50_000)
	c2 := p.Run(uarch.NewMachine(platform.IntelXeon()), 50_000)
	if c1 != c2 {
		t.Fatalf("nondeterministic:\n%+v\n%+v", c1, c2)
	}
}

func TestRunOnM1(t *testing.T) {
	// The generators must run on hosts without a uop cache.
	p, _ := ByName("525.x264_r")
	r := price(p, platform.M1Pro(), 50_000)
	if r.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	if r.DSBCoverage != 0 {
		t.Fatal("M1 has no DSB")
	}
}
