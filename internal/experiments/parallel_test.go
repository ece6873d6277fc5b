package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/platform"
	"gem5prof/internal/uarch"
)

// TestPassOrderAndBound checks the pass's pool and collection: the pool
// admits at most Workers() concurrent runs, a declaration's cells come back
// in declaration order whatever order their runs complete in, and the lowest
// failing cell's error wins.
func TestPassOrderAndBound(t *testing.T) {
	r := NewRunner(3)
	if r.Workers() != 3 {
		t.Fatalf("workers = %d", r.Workers())
	}
	var inFlight, maxInFlight atomic.Int64
	var wg sync.WaitGroup
	wg.Add(64)
	for range 64 {
		r.submit(func() {
			defer wg.Done()
			n := inFlight.Add(1)
			for {
				m := maxInFlight.Load()
				if n <= m || maxInFlight.CompareAndSwap(m, n) {
					break
				}
			}
			runtime.Gosched()
			inFlight.Add(-1)
		})
	}
	wg.Wait()
	if m := maxInFlight.Load(); m > 3 {
		t.Fatalf("pool admitted %d concurrent runs, want <= 3", m)
	}

	// Bare guests: sieve at four scales, then four unknown workloads.
	var cfgs []core.GuestConfig
	for i := range 8 {
		cfg := core.GuestConfig{Workload: "sieve", Scale: 64 << i}
		if i >= 4 {
			cfg.Workload = "nope"
		}
		cfgs = append(cfgs, cfg)
	}
	guests := func(cfgs []core.GuestConfig) *declaration {
		return &declaration{guests: func(Options) []bareGuest {
			var out []bareGuest
			for i, cfg := range cfgs {
				out = append(out, bareGuest{label: fmt.Sprintf("cell %d", i), cfg: cfg})
			}
			return out
		}}
	}
	measure := func(cfgs []core.GuestConfig) ([]*cellRun, error) {
		d := guests(cfgs)
		opt := Options{Jobs: 3}.withRunner()
		opt.pass.plan(d, opt)
		return opt.pass.measure(d)
	}
	cells, err := measure(cfgs[:4])
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		alone, err := core.RunGuest(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if c.guest.Insts != alone.Insts || c.guest.SimTicks != alone.SimTicks {
			t.Errorf("cell %d: %d insts in %d ticks, alone %d in %d", i, c.guest.Insts, c.guest.SimTicks, alone.Insts, alone.SimTicks)
		}
	}
	if _, err := measure(cfgs); err == nil || err.Error() != `cell 4: core: unknown workload "nope"` {
		t.Fatalf("err = %v, want the lowest failing cell's", err)
	}

	// A session planned after a bare guest of its guest rides a
	// co-simulation of its own.
	opt := Options{Jobs: 1}.withRunner()
	opt.pass.plan(guests(cfgs[:1]), opt)
	opt.pass.plan(full(func(Options) []core.SessionConfig {
		return []core.SessionConfig{{Guest: cfgs[0], Host: platform.IntelXeon()}}
	}), opt)
	if n := len(opt.pass.open); n != 2 {
		t.Errorf("a bare guest and a session of one guest planned %d runs, want 2", n)
	}
}

// TestRunManyOrder checks that RunMany yields outcomes in ids order even
// though the experiments complete in arbitrary order, and that unknown ids
// surface as per-outcome errors.
func TestRunManyOrder(t *testing.T) {
	ids := []string{"table2", "nope", "table1"}
	var got []string
	var errs int
	for oc := range RunMany(ids, Options{Quick: true, Jobs: 2}) {
		got = append(got, oc.ID)
		if oc.Err != nil {
			errs++
			if oc.ID != "nope" {
				t.Errorf("unexpected error for %s: %v", oc.ID, oc.Err)
			}
		}
	}
	if strings.Join(got, ",") != "table2,nope,table1" {
		t.Fatalf("outcome order = %v", got)
	}
	if errs != 1 {
		t.Fatalf("errs = %d", errs)
	}
}

// renderWithJobs regenerates one experiment under the given worker count
// and returns the rendered report.
func renderWithJobs(t *testing.T, id string, jobs int) string {
	t.Helper()
	res, err := Run(id, Options{Quick: true, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return res.Render()
}

// TestParallelDeterminism is the harness's core guarantee: running a
// multi-run experiment with -j 1 and -j 8 renders byte-identical output.
// fig02 exercises the shared Top-Down measurement set (11 cells), ablations
// the flattened probe cells including the calendar-queue run.
func TestParallelDeterminism(t *testing.T) {
	for _, id := range []string{"fig02", "ablations"} {
		seq := renderWithJobs(t, id, 1)
		par := renderWithJobs(t, id, 8)
		if seq != par {
			t.Errorf("%s: -j 1 and -j 8 output differs:\n--- j1 ---\n%s\n--- j8 ---\n%s", id, seq, par)
		}
	}
}

// TestInvalidHostIsAnOutcomeError: a cell whose host (or code-model) config
// cannot be built used to panic on its worker goroutine, which takes the
// whole process down. It must arrive where every other failure does: as the
// error of its experiment's Outcome, with the other cells and experiments
// unharmed — among them an experiment in the same pass that asks for the
// failing experiment's good cells, which ride one co-simulation with them.
func TestInvalidHostIsAnOutcomeError(t *testing.T) {
	good := func(Options) []core.SessionConfig {
		cells := make([]core.SessionConfig, 4)
		for i := range cells {
			cells[i] = core.SessionConfig{
				Guest: core.GuestConfig{CPU: core.Atomic, Workload: "sieve", Scale: 64},
				Host:  platform.IntelXeon(),
			}
		}
		cells[2].Host.HugePages = uarch.PagesTHP
		return cells
	}
	bad := func(opt Options) []core.SessionConfig {
		cells := good(opt)
		cells[1].Host.L1I.Ways = 17
		cells[3].HostCode.TextSlots = 3000
		return cells
	}
	for _, id := range []string{"test-bad-host", "test-good-host"} {
		d := seconds(bad)
		if id == "test-good-host" {
			d = seconds(good)
		}
		register(id, d, func(_ Options, cells []*cellRun) (*Result, error) {
			return &Result{ID: id, Rows: []Row{{Label: "s", Values: secondsOf(cells)}}}, nil
		})
		defer func() {
			mu.Lock()
			delete(registry, id)
			mu.Unlock()
		}()
	}
	for _, sampled := range []bool{false, true} {
		var got []Outcome
		for oc := range RunMany([]string{"table1", "test-bad-host", "test-good-host"}, Options{Quick: true, Jobs: 2, SimPoint: sampled}) {
			got = append(got, oc)
		}
		if len(got) != 3 || got[0].Err != nil || got[0].Res == nil {
			t.Fatalf("sampled=%v: table1 beside the failing experiment: %+v", sampled, got)
		}
		if err := got[1].Err; err == nil || !strings.Contains(err.Error(), "core: host: uarch: Intel_Xeon: L1I: 17 ways") {
			t.Errorf("sampled=%v: Outcome.Err = %v, want the lowest failing cell's named host error", sampled, err)
		}
		if err := got[2].Err; err != nil || len(got[2].Res.Rows[0].Values) != 4 {
			t.Errorf("sampled=%v: the experiment sharing the good cells: %+v", sampled, got[2])
		}
	}
}
