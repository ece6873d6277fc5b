package core_test

import (
	"runtime"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/sim"
)

// TestTimingPathAllocs holds the steady-state timing path to (almost) no
// allocation: the 4-core Timing guest of the guest_mt4 benchmark workload,
// run past its start-up and then measured over a window of simulated time,
// may allocate fewer than 0.02 objects per serviced event. With an event per
// cache hit and a closure per access it allocated 1.07. What is left is the
// closures of the miss path (the bus, the directory, the TLBs), a few per
// thousand events. Every queue arrangement must get there, because each
// backend recycles one-shot events itself.
func TestTimingPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		calendar bool
		shards   core.ShardMode
	}{
		{"heap", false, core.ShardSerial},
		{"calendar", true, core.ShardSerial},
		{"sharded", false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := core.BuildGuest(core.GuestConfig{
				CPU: core.Timing, Workload: "matmul_mt", Cores: 4,
				CalendarQueue: tc.calendar, Shards: tc.shards,
			}, sim.NewNopTracer())
			if err != nil {
				t.Fatal(err)
			}
			// To a mid-point: the threads are spawned, the caches warm and
			// every free list at its high-water mark.
			if res := g.RunFor(60 * sim.Microsecond); res.Status != sim.ExitLimit {
				t.Fatalf("warm-up ended the run: %+v", res)
			}
			var before, after runtime.MemStats
			events := g.Sys.EventsServiced()
			runtime.ReadMemStats(&before)
			res := g.RunFor(40 * sim.Microsecond)
			runtime.ReadMemStats(&after)
			events = g.Sys.EventsServiced() - events
			if res.Status != sim.ExitLimit || events < 100_000 {
				t.Fatalf("measured window too short: %d events, %+v", events, res)
			}
			perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
			t.Logf("%d objects over %d events: %.4f per event", after.Mallocs-before.Mallocs, events, perEvent)
			if perEvent >= 0.02 {
				t.Errorf("%.4f objects allocated per serviced event, want < 0.02", perEvent)
			}
		})
	}
}
