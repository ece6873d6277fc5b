package core

import (
	"fmt"

	"gem5prof/internal/isa"
	"gem5prof/internal/sim"
	"gem5prof/internal/uarch"
)

// InstBudgetReason is the exit reason reported when an instruction-budgeted
// run (RunInsts, IntervalRunner.Run) stops the guest because its budget is
// exhausted rather than because the workload exited.
const InstBudgetReason = "instruction budget reached"

// hookInsts installs one shared commit hook across all cores that counts
// committed instructions, invokes mark(i) when the count reaches marks[i]
// (marks must be strictly increasing and positive), and requests a
// simulation exit when it reaches total. It returns a teardown function
// that removes the hooks and reports the final count. The countdown is
// shared across cores: the budget is a whole-guest instruction total,
// matching how Checkpoint.Insts and the BBV profiler count.
func (g *GuestSystem) hookInsts(marks []uint64, total uint64, mark func(i int)) func() uint64 {
	executed := uint64(0)
	next := 0
	hook := func(_ uint32, _ isa.Inst) {
		executed++
		if next < len(marks) && executed == marks[next] {
			mark(next)
			next++
		}
		if executed == total {
			g.Sys.RequestExit(InstBudgetReason, 0)
		}
	}
	for _, c := range g.CPUs {
		c.Core().SetCommitHook(hook)
	}
	return func() uint64 {
		for _, c := range g.CPUs {
			c.Core().SetCommitHook(nil)
		}
		return executed
	}
}

// RunInsts services events until budget further instructions have committed
// across all cores, or the workload exits, whichever comes first. The
// result's ExitReason distinguishes the two (InstBudgetReason vs. the
// workload's own reason).
//
// The stop is abrupt: it fires from the commit hook of the budget's last
// instruction, before the owning CPU model has advanced its PC or
// rescheduled its next event, so the guest must NOT be resumed with further
// Run calls afterwards. Statistics and memory state up to and including
// that instruction are valid; that is all an interval measurement needs.
func (g *GuestSystem) RunInsts(budget uint64) (*GuestResult, error) {
	if budget == 0 {
		return nil, fmt.Errorf("core: instruction budget must be positive")
	}
	done := g.hookInsts(nil, budget, nil)
	defer done()
	return g.finish(g.Sys.Run(sim.MaxTick, 0))
}

// IntervalResult is one measured interval of a sampled co-simulation, on
// one host of the runner's sweep.
type IntervalResult struct {
	// Counts are the lane's host counts at the window's end. They cover
	// warmup and the measured window together, cumulative across windows
	// when the IntervalRunner's machine is reused; Seconds below covers
	// this window alone.
	Counts uarch.Counts
	// Seconds is the modeled host time spent inside the measured window
	// (warmup excluded).
	Seconds float64
	// Insts is the number of instructions committed inside the window.
	Insts uint64
	// SubSeconds and SubInsts split the window into up to three
	// consecutive sub-windows (thirds of the budget). A window restored
	// from a checkpoint starts with cold microarchitectural state, so its
	// early sub-windows run slower than its late ones; samplers use the
	// decay across the sub-windows to extrapolate that transient away
	// (see internal/simpoint). Sums equal Seconds and Insts exactly.
	SubSeconds []float64
	SubInsts   []uint64
	// Completed reports whether the full budget was consumed; false means
	// the workload exited first, which is normal for a tail interval.
	Completed bool
}

// IntervalRunner measures successive interval sessions of one sweep on a
// persistent host machine with one lane per host. Each Run builds a fresh
// guest (restored from its checkpoint), but the modeled machine — caches,
// TLBs, predictors, clocks — carries over from the previous Run, the way it
// would across the same instructions of one long full run. Without this,
// every measured window pays the machine's full cold start, which no
// affordable per-window warmup can absorb. The machine's units and the
// simulator binary come from the same stores every session draws on
// (stores.go); the runner just keeps its machine, unreset, from window to
// window and rewinds its code model over the layout it already follows. The
// sweep is what RunSessions accepts, and each lane's windows are bit for
// bit what a runner of that host alone measures. Runs are serial by
// construction; a runner must not be shared across goroutines. Close it
// when the last window has been measured.
type IntervalRunner struct {
	cfgs []SessionConfig
	cs   *cosim
}

// NewIntervalRunner returns a runner for one sweep of session
// configurations. The host machine is assembled on the first Run and kept
// until Close.
func NewIntervalRunner(cfgs []SessionConfig) *IntervalRunner {
	return &IntervalRunner{cfgs: cfgs}
}

// Close gives the runner's machine back for other sessions to reuse. Every
// IntervalResult already returned stays valid (its Counts are a copy); a Run
// after Close starts over on a cold machine.
func (r *IntervalRunner) Close() {
	if r.cs != nil {
		r.cs.release()
		r.cs = nil
	}
}

// Run measures one interval window on every host of the sweep and returns
// one result per member, in order: it builds the guest (restoring from ck
// when non-nil, else running from the start), executes warmup instructions
// to re-warm microarchitectural state that a checkpoint does not carry, then
// measures the modeled host time of the next budget instructions. This is
// the SimPoint leg of the paper's fast-forward→restore flow: the members'
// Guest.CPU selects the detailed target model, while the checkpoint itself
// was taken by the Atomic model.
//
// Interval sessions always run serially (never pipelined, never sharded;
// see newExecPlan). The function profiler is rejected outright because its
// reports would mix warmup with measurement.
func (r *IntervalRunner) Run(ck *Checkpoint, warmup, budget uint64) ([]*IntervalResult, error) {
	if budget == 0 {
		return nil, fmt.Errorf("core: interval budget must be positive")
	}
	total := warmup + budget
	if total < budget {
		return nil, fmt.Errorf("core: warmup %d + budget %d overflows", warmup, budget)
	}
	if r.cs == nil {
		cs, err := newCosim(r.cfgs, true)
		if err != nil {
			return nil, err
		}
		r.cs = cs
	} else {
		// Rewind the replay state so this build's registrations,
		// allocations and access patterns repeat the first build's.
		r.cs.cm.ResetRun()
	}
	cs := r.cs
	if err := cs.build(r.cfgs[0].Guest, ck); err != nil {
		return nil, err
	}
	g := cs.guest
	members := len(cs.lanes)

	// Clock-read boundaries: the warmup→measure edge, plus interior marks
	// at thirds of the budget that delimit the sub-windows. Every member's
	// clock is read at each, into times[mark*members+member].
	bounds := []uint64{warmup}
	if sub := budget / 3; sub > 0 {
		bounds = append(bounds, warmup+sub, warmup+2*sub)
	}
	times := make([]float64, len(bounds)*members)
	reached := 0
	markAt := func(i int) {
		for l := 0; l < members; l++ {
			_, host := cs.counts(l)
			times[i*members+l] = host.TimeSeconds
		}
		reached = i + 1
	}
	hookBounds, off := bounds, 0
	if warmup == 0 { // executed never equals 0, so pre-mark the first edge
		markAt(0)
		hookBounds, off = bounds[1:], 1
	}
	done := g.hookInsts(hookBounds, total, func(i int) { markAt(i + off) })
	gres, err := g.finish(g.Sys.Run(sim.MaxTick, 0))
	executed := done()
	if err != nil {
		return nil, err
	}
	if reached == 0 || executed <= warmup {
		return nil, fmt.Errorf("core: workload exited after %d instructions, before the measured window (warmup %d)",
			executed, warmup)
	}
	out := make([]*IntervalResult, members)
	for l := range out {
		at := func(i int) float64 { return times[i*members+l] }
		counts, host := cs.counts(l)
		end := host.TimeSeconds
		var subSecs []float64
		var subInsts []uint64
		for i := 1; i < reached; i++ {
			subSecs = append(subSecs, at(i)-at(i-1))
			subInsts = append(subInsts, bounds[i]-bounds[i-1])
		}
		if executed > bounds[reached-1] { // close the final (possibly partial) sub-window
			subSecs = append(subSecs, end-at(reached-1))
			subInsts = append(subInsts, executed-bounds[reached-1])
		}
		out[l] = &IntervalResult{
			Counts:     counts,
			Seconds:    end - at(0),
			Insts:      executed - warmup,
			SubSeconds: subSecs,
			SubInsts:   subInsts,
			Completed:  gres.ExitReason == InstBudgetReason,
		}
	}
	return out, nil
}
