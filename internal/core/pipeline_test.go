package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gem5prof/internal/platform"
)

// fullStatDump renders every modeled statistic of a session: the host's
// counts, every one an integer (its report is their price), the code-model
// summary, and the entire guest stats registry. Any divergence between two
// runs makes the dumps byte-unequal.
func fullStatDump(r *SessionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "host %+v\n", r.Counts)
	fmt.Fprintf(&b, "code text=%d funcs=%d called=%d\n", r.TextBytes, r.NumFuncs, r.CalledFuncs)
	fmt.Fprintf(&b, "guest ticks=%d insts=%d exit=%d reason=%q events=%d checksum=%v\n",
		r.Guest.SimTicks, r.Guest.Insts, r.Guest.ExitCode, r.Guest.ExitReason,
		r.Guest.HostEvents, r.Guest.ChecksumOK)
	for _, name := range r.Guest.Stats.Names() {
		fmt.Fprintf(&b, "stat %s = %v\n", name, r.Guest.Stats.Get(name))
	}
	return b.String()
}

// TestPipelineDifferential is the tentpole's correctness proof: for every
// workload × host-config cell, the pipelined co-simulation (producer and
// consumer goroutines decoupled by the batch ring) must produce a stat dump
// byte-identical to the serial path's. Strict FIFO delivery through the
// SPSC ring means the Machine sees the exact event sequence the serial sink
// saw, so every float lands bit-for-bit in the same place.
func TestPipelineDifferential(t *testing.T) {
	cells := []struct {
		workload string
		scale    int
		cpu      CPUModel
		host     string
	}{
		{"water_nsquared", 24, O3, "Intel_Xeon"},
		{"water_nsquared", 24, O3, "M1_Pro"},
		{"dedup", 2048, Timing, "Intel_Xeon"},
		{"dedup", 2048, Timing, "M1_Pro"},
	}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("%s_%s_%s", c.workload, c.cpu, c.host), func(t *testing.T) {
			host, err := platform.ByName(c.host)
			if err != nil {
				t.Fatal(err)
			}
			run := func(mode PipelineMode) string {
				res, err := RunSession(SessionConfig{
					Guest: GuestConfig{
						CPU: c.cpu, Mode: SE,
						Workload: c.workload, Scale: c.scale,
					},
					Host:     host,
					Pipeline: mode,
				})
				if err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				return fullStatDump(res)
			}
			serial := run(PipelineOff)
			pipelined := run(PipelineOn)
			if serial != pipelined {
				t.Fatalf("stat dumps differ between serial and pipelined runs:\n%s",
					firstDiff(serial, pipelined))
			}
			// Guard against a vacuous pass: the dump must actually carry
			// modeled activity.
			if !strings.Contains(serial, "stat ") || strings.Contains(serial, "Cycles:0") {
				t.Fatalf("suspiciously empty stat dump:\n%.400s", serial)
			}
		})
	}
}

// TestCalendarQueueMatchesHeap: the event-queue backend changes how events
// are stored, never which one fires next, so an O3 co-simulation on the
// calendar queue reproduces the heap's host report, code-model summary and
// guest registry byte for byte. (Ablation A5 used to show this as a
// modeled-time ratio of 1.0000 at four decimals.)
func TestCalendarQueueMatchesHeap(t *testing.T) {
	run := func(calendar bool) string {
		res, err := RunSession(SessionConfig{
			Guest: GuestConfig{CPU: O3, Mode: SE, Workload: "water_nsquared", Scale: 24,
				CalendarQueue: calendar},
			Host: platform.IntelXeon(),
		})
		if err != nil {
			t.Fatalf("calendar=%v: %v", calendar, err)
		}
		if res.Plan.Calendar != calendar {
			t.Fatalf("calendar=%v ran under %v", calendar, res.Plan)
		}
		return fullStatDump(res)
	}
	heap, calendar := run(false), run(true)
	if heap != calendar {
		t.Fatalf("stat dumps differ between the heap and the calendar queue:\n%s", firstDiff(heap, calendar))
	}
	if !strings.Contains(heap, "stat ") || strings.Contains(heap, "Cycles:0") {
		t.Fatalf("suspiciously empty stat dump:\n%.400s", heap)
	}
}

// firstDiff returns the first differing line pair of two dumps.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  serial:    %s\n  pipelined: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("dumps differ in length: %d vs %d lines", len(al), len(bl))
}

// TestPipelineModeResolution pins the pipeline rules of the plan: profiling
// always forces serial; explicit on/off win over the process default; auto
// takes the default, and an unset default is off.
func TestPipelineModeResolution(t *testing.T) {
	defer SetDefaultPipeline(PipelineAuto)

	cases := []struct {
		mode    PipelineMode
		def     PipelineMode
		profile bool
		want    bool
	}{
		{PipelineOn, PipelineAuto, false, true},
		{PipelineOff, PipelineAuto, false, false},
		{PipelineOn, PipelineOff, false, true},  // per-session beats default
		{PipelineOff, PipelineOn, false, false}, // per-session beats default
		{PipelineAuto, PipelineOn, false, true}, // default fills in auto
		{PipelineAuto, PipelineOff, false, false},
		{PipelineOn, PipelineAuto, true, false}, // profiler forces serial
		{PipelineAuto, PipelineOn, true, false},
	}
	for i, c := range cases {
		SetDefaultPipeline(c.def)
		got := newExecPlan(SessionConfig{Pipeline: c.mode, Profile: c.profile}, false).Pipelined
		if got != c.want {
			t.Errorf("case %d: mode=%v default=%v profile=%v: pipelined=%v, want %v",
				i, c.mode, c.def, c.profile, got, c.want)
		}
	}
}

// TestPipelineErrorPath checks a failing guest run still tears the
// pipeline down (no goroutine leak, error surfaced) — the consumer must
// not be left blocked on an open ring.
func TestPipelineErrorPath(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := RunSession(SessionConfig{
		Guest:    GuestConfig{CPU: O3, Mode: SE, Workload: "no_such_workload"},
		Host:     platform.IntelXeon(),
		Pipeline: PipelineOn,
	})
	if err == nil {
		t.Fatal("expected error for unknown workload")
	}
	// A failing BuildGuest never starts the consumer; also exercise a run
	// that starts and completes, then compare goroutine counts loosely.
	if _, err := RunSession(SessionConfig{
		Guest:    GuestConfig{CPU: Timing, Mode: SE, Workload: "sieve", Scale: 512},
		Host:     platform.IntelXeon(),
		Pipeline: PipelineOn,
	}); err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}
