package core_test

import (
	"runtime"
	"strings"
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
// thousand events. Both queue backends must get there, because each
// recycles one-shot events itself.
func TestTimingPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		calendar bool
	}{
		{"heap", false},
		{"calendar", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := core.BuildGuest(core.GuestConfig{
				CPU: core.Timing, Workload: "matmul_mt", Cores: 4,
				CalendarQueue: tc.calendar,
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

// TestGuestAtomicRebuildAllocs holds what a guest costs once its image has
// been built: a second build and run of the guest_atomic benchmark's config
// (sieve at scale 32768 on the Atomic CPU, untraced) allocates no decode
// table, because the words are decoded once per (workload, scale) into the
// images store, and no random source, because a System draws no random
// numbers. With a seeded source per guest it allocated 158 752-159 008
// bytes; without, 151 736-151 880 (go1.24 on linux/amd64). The bound is 2%
// over the latter, below the former. Allocation sizes follow the runtime's
// maps and size classes, so another Go release only logs its figure, and
// the race detector's instrumentation allocates more, so a race build skips
// the test.
func TestGuestAtomicRebuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	gc := core.GuestConfig{CPU: core.Atomic, Mode: core.SE, Workload: "sieve", Scale: 32768, Seed: 42}
	run := func() uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := core.BuildGuest(gc, sim.NewNopTracer())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // assembles and predecodes the image, if nothing has yet
	got := run()
	t.Logf("second build and run: %d bytes (%s)", got, runtime.Version())
	const pinned = 151_736
	if strings.HasPrefix(runtime.Version(), "go1.24") && float64(got) > 1.02*pinned {
		t.Errorf("second build and run allocated %d bytes, want at most %.0f (2%% over %d)", got, 1.02*pinned, pinned)
	}
}
