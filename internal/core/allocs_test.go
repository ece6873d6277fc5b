package core_test

import (
	"runtime"
	"strings"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/platform"
	"gem5prof/internal/sim"
)

// TestTimingPathAllocs holds the steady-state timing path to (almost) no
// allocation: the 4-core Timing guest of the guest_mt4 benchmark workload,
// run past its start-up and then measured over a window of simulated time,
// may allocate fewer than 0.02 objects per serviced event. With an event per
// cache hit and a closure per access it allocated 1.07. What is left is the
// closures of the miss path (the directory, the TLBs), a few per ten
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

// TestDetailedPathAllocs holds the detailed models' steady state to (almost)
// no allocation, as TestTimingPathAllocs does the Timing model's: O3 and
// Minor, untraced, measured over 40 µs of simulated time after a 20 µs
// warm-up, may allocate fewer than 0.0005 objects per serviced event. Two
// workloads cover the two halves of the data path: sieve at scale 32768,
// whose window stores and misses (every transaction crosses the bus), and
// fmm, whose window loads. While the front end consumed its decode buffer
// from the front and appended at the back, every few fills allocated a new
// backing array, and O3 made a closure per committed store: 0.507 objects
// per event on O3 and 0.088 on Minor, on sieve. A closure per bus
// transaction reads 0.0007 and 0.0045 on sieve, a closure per load 0.24
// and 0.16 on fmm; without them sieve reads 0.0001 and 0.0002, fmm 0. A
// race build skips the test, since the race detector's instrumentation
// allocates.
func TestDetailedPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, model := range []core.CPUModel{core.O3, core.Minor} {
		t.Run(string(model), func(t *testing.T) {
			for _, w := range []struct {
				workload string
				scale    int
			}{{"sieve", 32768}, {"fmm", 0}} {
				t.Run(w.workload, func(t *testing.T) {
					g, err := core.BuildGuest(core.GuestConfig{
						CPU: model, Mode: core.SE, Workload: w.workload, Scale: w.scale,
					}, sim.NewNopTracer())
					if err != nil {
						t.Fatal(err)
					}
					if res := g.RunFor(20 * sim.Microsecond); res.Status != sim.ExitLimit {
						t.Fatalf("warm-up ended the run: %+v", res)
					}
					var before, after runtime.MemStats
					events := g.Sys.EventsServiced()
					runtime.ReadMemStats(&before)
					res := g.RunFor(40 * sim.Microsecond)
					runtime.ReadMemStats(&after)
					events = g.Sys.EventsServiced() - events
					if res.Status != sim.ExitLimit || events < 20_000 {
						t.Fatalf("measured window too short: %d events, %+v", events, res)
					}
					perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
					t.Logf("%d objects over %d events: %.4f per event", after.Mallocs-before.Mallocs, events, perEvent)
					if perEvent >= 0.0005 {
						t.Errorf("%.4f objects allocated per serviced event, want < 0.0005", perEvent)
					}
				})
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

// TestSessionRebuildAllocs holds what a repeated co-simulation session
// costs once everything it builds is in the stores, as
// TestGuestAtomicRebuildAllocs does a guest's: the second build and run of
// the cosim_serial benchmark's session (O3 on water_nsquared at scale 40,
// the Xeon host, serial) and of an O3 FS boot-exit session on the same
// host. With a closure per O3 load and per bus transaction, a 16-byte run
// table entry per simulator function and a kernel assembled per boot they
// allocated 390 456-395 512 and 506 464 bytes; without, 179 648-179 888
// and 285 920-286 184 (go1.24 on linux/amd64). Each bound is 2% over the
// top of the latter. Another Go release only logs its figures, and a race
// build skips the test.
func TestSessionRebuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	host := platform.IntelXeon()
	for _, tc := range []struct {
		name   string
		guest  core.GuestConfig
		pinned float64
	}{
		{"cosim_serial", core.GuestConfig{CPU: core.O3, Mode: core.SE, Workload: "water_nsquared", Scale: 40, Seed: 42}, 179_888},
		{"boot_exit", core.GuestConfig{CPU: core.O3, Mode: core.FS, BootExit: true, Seed: 42}, 286_184},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := core.SessionConfig{Guest: tc.guest, Host: host, Pipeline: core.PipelineOff}
			run := func() uint64 {
				t.Helper()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := core.RunSession(sc); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			// The stores hold what this session builds and nothing else, as
			// in the benchmark's process: a code model that follows several
			// published binaries sizes its run table for the smallest.
			core.DropStores()
			run()
			got := run()
			t.Logf("second build and run: %d bytes (%s)", got, runtime.Version())
			if strings.HasPrefix(runtime.Version(), "go1.24") && float64(got) > 1.02*tc.pinned {
				t.Errorf("second build and run allocated %d bytes, want at most %.0f (2%% over %.0f)", got, 1.02*tc.pinned, tc.pinned)
			}
		})
	}
}
