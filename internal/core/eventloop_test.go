package core_test

import (
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/sim"
)

// BenchmarkEventLoop is the guest of the guest_mt4 benchmark workload
// (matmul_mt at its default scale on four Timing cores, untraced and
// serial), the guest whose time the event queue bounds. Each iteration
// builds a guest, untimed, and runs it to its exit. It reports ns/event:
// the run's wall-clock over the events it fired.
func BenchmarkEventLoop(b *testing.B) {
	gc := core.GuestConfig{CPU: core.Timing, Mode: core.SE, Workload: "matmul_mt",
		Cores: 4, Shards: core.ShardSerial, Seed: 1}
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
