package core_test

import (
	"fmt"
	"strings"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/sim"
)

// quietTracer does nothing with what it is told, like the NopTracer it
// embeds, but is not a *sim.NopTracer: a System built on it takes every
// traced path. It only counts the annotations.
type quietTracer struct {
	*sim.NopTracer
	calls, data uint64
}

func (q *quietTracer) Call(sim.FuncID)           { q.calls++ }
func (q *quietTracer) Data(uint64, uint32, bool) { q.data++ }

// TestUntracedGuestMatchesTraced: a System whose tracer is a NopTracer skips
// every trace call and the arguments computed for it. Nothing the guest
// reports may depend on that: each config runs once untraced and once on a
// do-nothing tracer of another type, and the statistics, instructions,
// events and exit state must be byte-equal.
func TestUntracedGuestMatchesTraced(t *testing.T) {
	se := func(cpu core.CPUModel) core.GuestConfig {
		return core.GuestConfig{CPU: cpu, Mode: core.SE, Workload: "sieve", Scale: 256}
	}
	mt := core.GuestConfig{CPU: core.Timing, Mode: core.SE, Workload: "matmul_mt", Scale: 64, Cores: 4}
	cells := []struct {
		name string
		gc   core.GuestConfig
	}{
		{"atomic", se(core.Atomic)},
		{"timing", se(core.Timing)},
		{"minor", se(core.Minor)},
		{"o3", se(core.O3)},
		{"matmul_mt4", mt},
		{"fs_boot_exit", core.GuestConfig{CPU: core.Timing, Mode: core.FS, BootExit: true, BootKBs: 1}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			run := func(gc core.GuestConfig, tr sim.Tracer, tracing bool) string {
				t.Helper()
				g, err := core.BuildGuest(gc, tr)
				if err != nil {
					t.Fatal(err)
				}
				if g.Sys.Tracing() != tracing {
					t.Fatalf("%T: Tracing() = %v, want %v", tr, g.Sys.Tracing(), tracing)
				}
				res, err := g.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !res.ChecksumOK {
					t.Fatalf("%T: checksum %d, want %d", tr, res.ExitCode, res.Expected)
				}
				return fmt.Sprintf("%s\ninsts %d events %d ticks %d exit %d %q\n%s",
					res.Stats.Dump(), res.Insts, res.HostEvents, res.SimTicks,
					res.ExitCode, res.ExitReason, res.Stdout)
			}
			untraced := run(c.gc, sim.NewNopTracer(), false)
			quiet := &quietTracer{NopTracer: sim.NewNopTracer()}
			traced := run(c.gc, quiet, true)
			if untraced != traced {
				u, tr := strings.Split(untraced, "\n"), strings.Split(traced, "\n")
				for i := 0; i < len(u) && i < len(tr); i++ {
					if u[i] != tr[i] {
						t.Fatalf("line %d differs:\n  untraced: %s\n  traced:   %s", i+1, u[i], tr[i])
					}
				}
				t.Fatalf("untraced and traced runs differ in length: %d vs %d lines", len(u), len(tr))
			}
			if quiet.calls == 0 || quiet.data == 0 {
				t.Fatalf("the traced run told its tracer %d calls and %d data accesses", quiet.calls, quiet.data)
			}
		})
	}
}
