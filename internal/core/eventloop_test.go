package core_test

import (
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/sim"
)

// BenchmarkEventLoop is the guest of the guest_mt4 benchmark workload
// (matmul_mt at its default scale on four Timing cores, untraced), the
// guest whose time the event queue bounds. Each iteration
// builds a guest, untimed, and runs it to its exit. It reports ns/event:
// the run's wall-clock over the events it fired.
func BenchmarkEventLoop(b *testing.B) {
	gc := core.GuestConfig{CPU: core.Timing, Mode: core.SE, Workload: "matmul_mt", Cores: 4}
	var events uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := core.BuildGuest(gc, sim.NewNopTracer())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := g.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.ChecksumOK {
			b.Fatalf("guest checksum %#x, want %#x", res.ExitCode, res.Expected)
		}
		events += res.HostEvents
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkInterpreter is the guest of the guest_atomic benchmark workload
// (sieve at scale 32768 on the Atomic CPU, untraced), the guest whose time
// the interpreter bounds: no caches, no tracer, one event per 64
// instructions. Each iteration builds a guest, untimed, and runs it to its
// exit. It reports ns/inst: the run's wall-clock over the instructions it
// committed.
func BenchmarkInterpreter(b *testing.B) {
	gc := core.GuestConfig{CPU: core.Atomic, Mode: core.SE, Workload: "sieve", Scale: 32768}
	var insts uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := core.BuildGuest(gc, sim.NewNopTracer())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := g.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.ChecksumOK {
			b.Fatalf("guest checksum %#x, want %#x", res.ExitCode, res.Expected)
		}
		insts += res.Insts
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}
