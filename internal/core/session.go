package core

import (
	"fmt"

	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/profiler"
	"gem5prof/internal/uarch"
)

// PipelineMode is the type of SessionConfig.Pipeline, which nothing reads:
// a co-simulation runs the guest and the host machine on the caller's
// goroutine (DESIGN.md §15). The type and its three values remain only
// because bench/ compiles against them.
type PipelineMode int

// Pipeline modes, each of which changes nothing.
const (
	PipelineAuto PipelineMode = iota
	PipelineOff
	PipelineOn
)

// SetDefaultPipeline does nothing. It remains only because bench/ calls it.
func SetDefaultPipeline(PipelineMode) {}

// SessionConfig describes one co-simulation: a guest g5 simulation executed
// on a modeled host platform — the paper's unit of measurement.
type SessionConfig struct {
	Guest GuestConfig
	// Host is the host machine model (see internal/platform).
	Host uarch.Config
	// Scenario applies co-run/SMT contention (Fig. 1).
	Scenario platform.Scenario
	// HostCode overrides the code-model parameters field by field: every
	// zero field takes its default (hostmodel.Config.Normalized), so the
	// zero value is the default binary. SizeFactor < 1 models the -O3 build
	// (Fig. 12).
	HostCode hostmodel.Config
	// Profile attaches the function profiler (Fig. 15). It adds overhead,
	// so it is off by default.
	Profile bool
	// Pipeline is read by nothing; the field remains only because bench/
	// sets it.
	Pipeline PipelineMode
}

// SessionResult is one completed co-simulation.
type SessionResult struct {
	// Guest is the guest-side result (simulated ticks, instructions). The
	// results of one RunSessions call share it, since their hosts ran one
	// guest: it is read-only.
	Guest *GuestResult
	// Host is the price of Counts, what the host machine's units counted;
	// Host.TimeSeconds is the paper's "simulation time (host seconds)" metric.
	Host   uarch.Report
	Counts uarch.Counts
	// Prof is the function profiler when SessionConfig.Profile was set.
	Prof *profiler.Profiler
	// Code summarizes the synthetic simulator binary.
	TextBytes   uint64
	NumFuncs    int
	CalledFuncs int
}

// SimSeconds returns the modeled host wall-clock of the simulation.
func (r *SessionResult) SimSeconds() float64 { return r.Host.TimeSeconds }

// cosim bundles the host side of one co-simulation — the modeled machine,
// with one lane per distinct host of the sweep on units shared by every
// lane of their key, and the synthetic simulator binary that feeds it —
// together with the guest it traces. RunSessions and IntervalRunner share
// this assembly; only how much of the guest runs differs.
type cosim struct {
	// lanes[i] is the lane member i is modeled on; members whose contended
	// hosts are equal share one. hosts[l] is lane l's contended host.
	machine  *uarch.Machine
	lanes    []int
	hosts    []uarch.Config
	cm       *hostmodel.CodeModel
	hostCode hostmodel.Config // normalised
	prof     *profiler.Profiler
	guest    *GuestSystem
}

// assignLanes gives every distinct host a lane; a host equal to an earlier
// one shares that one's lane, so a cell asked for twice is modeled once. It
// returns the hosts lane by lane, and each member's lane.
func assignLanes(hosts []uarch.Config) ([]uarch.Config, []int) {
	var distinct []uarch.Config
	lanes := make([]int, len(hosts))
next:
	for i, h := range hosts {
		for j := range hosts[:i] {
			if hosts[j] == h {
				lanes[i] = lanes[j]
				continue next
			}
		}
		lanes[i] = len(distinct)
		distinct = append(distinct, h)
	}
	return distinct, lanes
}

// newCosim assembles the host side of a sweep, for an IntervalRunner when
// interval is set: one machine, on units drawn from the units store, with a
// lane per distinct (contended) host, and a code model that follows the
// published layouts of the normalised HostCode and feeds it. The sweep is
// checked (sweepHosts) before anything is looked up or allocated, so a bad
// config is an error here and not a panic out of a constructor. The caller
// builds a guest onto the result (build) and releases it when done.
func newCosim(cfgs []SessionConfig, interval bool) (*cosim, error) {
	hosts, err := sweepHosts(cfgs)
	if err != nil {
		return nil, err
	}
	cfg := cfgs[0]
	if interval && cfg.Profile {
		return nil, fmt.Errorf("core: interval sessions do not support the function profiler")
	}
	distinct, lanes := assignLanes(hosts)
	cs := &cosim{lanes: lanes, hosts: distinct, hostCode: cfg.HostCode.Normalized()}
	cs.machine = acquireMachine(distinct...)
	cs.cm = hostmodel.Follow(cs.hostCode, cs.machine, layouts.peek(cs.hostCode))
	if cfg.Profile {
		// A profiled sweep has one host (sweepHosts), so one lane.
		cs.prof = profiler.New(cs.machine, cs.cm)
		cs.cm.SetProfiler(cs.prof)
	}
	return cs, nil
}

// counts returns what member i's units have counted so far, and their
// price.
func (cs *cosim) counts(i int) (uarch.Counts, uarch.Report) {
	l := cs.lanes[i]
	c := cs.machine.Counts(l)
	return c, uarch.Price(&cs.hosts[l], &c)
}

// build constructs the guest onto the code model's tracer (from ck when
// non-nil, else from the workload entry point), publishes the layout the
// build ended on, and hands the finished address map to the machine's TLBs.
//
// An IntervalRunner builds again and again onto one cosim, after rewinding
// the code model (CodeModel.ResetRun): the new guest makes the same
// registrations and allocations and lands on the addresses the kept
// machine's map covers and its warm caches hold, and mapping them again
// changes nothing (Machine.MapText and MapData are idempotent).
func (cs *cosim) build(gc GuestConfig, ck *Checkpoint) error {
	var err error
	if ck != nil {
		cs.guest, err = RestoreGuest(gc, ck, cs.cm)
	} else {
		cs.guest, err = BuildGuest(gc, cs.cm)
	}
	if err != nil {
		return err
	}
	if l := cs.cm.Publish(); l != nil {
		layouts.put(cs.hostCode, l, l.Same)
	}

	// The simulator binary is now fully laid out; hand the address map to
	// the host machine so its TLBs know the page backing.
	tb, te := cs.cm.TextRange()
	hb, he := cs.cm.HeapRange()
	cs.machine.MapText(tb, te)
	cs.machine.MapData(hb, he)
	cs.machine.MapData(cs.hostCode.StackBase-(1<<20), cs.hostCode.StackBase+(1<<12))
	return nil
}

// release returns the machine's units to the store once nothing reads them
// any more: after the run and the Reports taken. A profiled session keeps
// its machine, which the Profiler it hands out reads cycles from. The cosim
// must not be used afterwards.
func (cs *cosim) release() {
	if cs.prof == nil {
		releaseMachine(cs.machine)
	}
	cs.machine = nil
}

// results assembles one SessionResult per member for a completed run, in
// sweep order. They share gres.
func (cs *cosim) results(gres *GuestResult) []*SessionResult {
	out := make([]*SessionResult, len(cs.lanes))
	for i := range cs.lanes {
		c, r := cs.counts(i)
		out[i] = &SessionResult{
			Guest:       gres,
			Counts:      c,
			Host:        r,
			Prof:        cs.prof,
			TextBytes:   cs.cm.TextBytes(),
			NumFuncs:    cs.cm.NumFuncs(),
			CalledFuncs: cs.cm.CalledFuncs(),
		}
	}
	return out
}

// RunSession builds and runs one co-simulation: RunSessions of one.
func RunSession(cfg SessionConfig) (*SessionResult, error) {
	res, err := RunSessions([]SessionConfig{cfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunSessions co-simulates one guest on several hosts and returns one
// result per member, in order. The members must share the guest and the
// normalised binary (HostCode), and only a sweep of one may profile (SweepError otherwise); their hosts and scenarios may
// differ in anything. The guest and its trace are simulated once, and the
// contended hosts are lanes of one machine (DESIGN §21, §22): each cache,
// uop cache, predictor and translation unit runs once for every lane whose
// host has its geometry (DESIGN §23), and members with equal contended
// hosts share a lane. Every member's report is bit for bit what RunSession
// of that member alone returns. The results share one read-only
// GuestResult.
//
// RunSessions is safe for concurrent use, and its results are a pure
// function of cfgs. A call constructs its own guest system, and the
// package-level state it reads (workload registry, platform tables, SPEC
// profiles) is immutable after init; what it takes from the construction
// stores (stores.go) — a layout it verifies call by call, units it
// resets completely, an image it copies from — cannot carry anything from
// one session into another. The parallel experiment runner relies on this.
// A call runs on the caller's goroutine and starts none, so a harness
// admitting Jobs concurrent calls runs Jobs simulation goroutines.
func RunSessions(cfgs []SessionConfig) ([]*SessionResult, error) {
	cs, err := newCosim(cfgs, false)
	if err != nil {
		return nil, err
	}
	defer cs.release()
	if err := cs.build(cfgs[0].Guest, nil); err != nil {
		return nil, err
	}
	gres, err := cs.guest.Run()
	if err != nil {
		return nil, err
	}
	return cs.results(gres), nil
}
