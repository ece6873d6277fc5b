package profiler

import (
	"strings"
	"testing"
	"testing/quick"

	"gem5prof/internal/sim"
)

// fakeClock is a controllable cycle source.
type fakeClock struct{ c float64 }

func (f *fakeClock) Cycles() float64 { return f.c }

type fakeNames struct{}

func (fakeNames) FuncName(fn sim.FuncID) string {
	return map[sim.FuncID]string{1: "alpha", 2: "beta", 3: "gamma"}[fn]
}

func TestExclusiveAttribution(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk, fakeNames{})
	// alpha runs 10 cycles, calls beta which runs 30, then 5 more in alpha.
	p.Enter(1)
	clk.c += 10
	p.Enter(2)
	clk.c += 30
	p.Leave(2)
	clk.c += 5
	p.Leave(1)

	top := p.Top(10)
	if len(top) != 2 {
		t.Fatalf("entries = %d", len(top))
	}
	if top[0].Name != "beta" || top[0].Cycles != 30 {
		t.Fatalf("hottest = %+v", top[0])
	}
	if top[1].Name != "alpha" || top[1].Cycles != 15 {
		t.Fatalf("second = %+v", top[1])
	}
	if p.TotalCycles() != 45 {
		t.Fatalf("total = %v", p.TotalCycles())
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	// Property: the CDF is nondecreasing and ends at <= 1.
	f := func(durations []uint8) bool {
		clk := &fakeClock{}
		p := New(clk, nil)
		for i, d := range durations {
			fn := sim.FuncID(i%17 + 1)
			p.Enter(fn)
			clk.c += float64(d) + 1
			p.Leave(fn)
		}
		cdf := p.CDF(50)
		prev := 0.0
		for _, v := range cdf {
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return len(cdf) == 0 || cdf[len(cdf)-1] <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopNTruncates(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk, nil)
	for i := 1; i <= 100; i++ {
		p.Enter(sim.FuncID(i))
		clk.c += float64(i)
		p.Leave(sim.FuncID(i))
	}
	if len(p.Top(10)) != 10 {
		t.Fatal("Top(10) wrong length")
	}
	if p.Top(10)[0].Cycles != 100 {
		t.Fatal("not sorted by cycles")
	}
	if len(p.Top(0)) != 100 {
		t.Fatal("Top(0) should return all")
	}
}

func TestUnbalancedLeaveIsIgnored(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk, nil)
	p.Leave(5) // no matching enter: must not panic
	p.Enter(1)
	clk.c += 3
	p.Leave(2) // mismatched id: frame dropped
	if p.TotalCycles() != 0 {
		t.Fatal("mismatched leave attributed cycles")
	}
}

func TestRender(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk, fakeNames{})
	p.Enter(1)
	clk.c += 7
	p.Leave(1)
	out := p.Render(5)
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "100.00%") {
		t.Fatalf("render = %q", out)
	}
}

func TestNestedSameFunction(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk, nil)
	// Recursion: f calls f.
	p.Enter(1)
	clk.c += 2
	p.Enter(1)
	clk.c += 3
	p.Leave(1)
	clk.c += 1
	p.Leave(1)
	if p.TotalCycles() != 6 {
		t.Fatalf("total = %v", p.TotalCycles())
	}
	if p.Top(1)[0].Calls != 2 {
		t.Fatal("call count wrong")
	}
}
