package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"

	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/profiler"
	"gem5prof/internal/ring"
	"gem5prof/internal/uarch"
)

// PipelineMode selects whether a co-simulation runs its two stages — the
// guest simulator + hostmodel trace synthesis (producer) and the
// uarch.Machine (consumer) — on one goroutine or two, decoupled by a
// batched SPSC ring (internal/ring). Strict FIFO delivery makes the
// modeled statistics bit-identical either way (see DESIGN.md §10), so the
// mode is purely a performance knob.
type PipelineMode int

// Pipeline modes.
const (
	// PipelineAuto (the zero value) defers to the process-wide default set
	// by SetDefaultPipeline; if that too is auto, the pipeline is off.
	PipelineAuto PipelineMode = iota
	// PipelineOff forces the serial path (the pre-pipeline behaviour).
	PipelineOff
	// PipelineOn forces the pipelined path (on one core it only costs). No
	// harness flag selects it any more; it stays because bench/ compiles
	// against it and runs the cosim_pipelined workload on it.
	PipelineOn
)

// String renders the mode as its flag spelling.
func (m PipelineMode) String() string {
	switch m {
	case PipelineOff:
		return "off"
	case PipelineOn:
		return "on"
	default:
		return "auto"
	}
}

// defaultPipeline is the process-wide mode that PipelineAuto sessions
// resolve against. Atomic so concurrent sessions may read it freely.
var defaultPipeline atomic.Int32

// SetDefaultPipeline sets the process-wide pipeline mode used by sessions
// whose SessionConfig.Pipeline is PipelineAuto. Nothing in this module
// calls it outside tests; it stays because bench/ compiles against it.
func SetDefaultPipeline(m PipelineMode) { defaultPipeline.Store(int32(m)) }

// DefaultPipeline returns the process-wide pipeline mode.
func DefaultPipeline() PipelineMode { return PipelineMode(defaultPipeline.Load()) }

// ringSlots is the per-session ring capacity in batches. 8 slots of 16 KiB
// batches bound the producer's lead at 128 KiB of trace — enough slack
// that neither side parks in steady state, small enough to stay resident
// in a shared L2/LLC while crossing cores.
const ringSlots = 8

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
	// so it is off by default. Profiling forces a serial, unpipelined run
	// (see newExecPlan).
	Profile bool
	// Pipeline selects serial or producer/consumer execution of the
	// co-simulation (bit-identical statistics either way). The zero value
	// is PipelineAuto.
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
	// Plan is how the session executed. It is not part of the modeled
	// outcome: every plan produces the same statistics.
	Plan ExecPlan
}

// SimSeconds returns the modeled host wall-clock of the simulation.
func (r *SessionResult) SimSeconds() float64 { return r.Host.TimeSeconds }

// cosim bundles the host side of one co-simulation — the modeled machine,
// with one lane per distinct host of the sweep on units shared by every
// lane of their key, the synthetic simulator binary, and (when pipelined)
// the ring stages — together with the guest it traces. RunSessions and
// IntervalRunner share this assembly; only how (and how much of) the guest
// runs differs.
type cosim struct {
	plan ExecPlan
	// lanes[i] is the lane member i is modeled on; members whose contended
	// hosts are equal share one. hosts[l] is lane l's contended host.
	machine  *uarch.Machine
	lanes    []int
	hosts    []uarch.Config
	cm       *hostmodel.CodeModel
	hostCode hostmodel.Config // normalised
	prof     *profiler.Profiler
	enc      *hostmodel.RingSink
	cons     *uarch.Consumer
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
	cs := &cosim{plan: newExecPlan(cfg, interval), lanes: lanes, hosts: distinct, hostCode: cfg.HostCode.Normalized()}
	cs.machine = acquireMachine(distinct...)

	// Pipelined mode interposes a batch encoder between the code model and
	// the machine; it then consumes the identical event stream on its own
	// goroutine (uarch.Consumer), started only after the address map is
	// final.
	var sink hostmodel.Sink = cs.machine
	if cs.plan.Pipelined {
		rg := ring.New(ringSlots)
		cs.enc = hostmodel.NewRingSink(rg)
		cs.cons = uarch.NewConsumer(cs.machine, rg)
		sink = cs.enc
	}
	cs.cm = hostmodel.Follow(cs.hostCode, sink, layouts.peek(cs.hostCode))
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
		cs.guest, err = restoreGuest(gc, cs.plan, ck, cs.cm)
	} else {
		cs.guest, err = startGuest(gc, nil, cs.plan, cs.cm)
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
// any more: after the consumer has been waited for and the Reports taken. A
// profiled session keeps its machine, which the Profiler it hands out reads
// cycles from. The cosim must not be used afterwards.
func (cs *cosim) release() {
	if cs.prof == nil {
		releaseMachine(cs.machine)
	}
	cs.machine = nil
}

// run executes the guest through the session's pipeline arrangement.
// runGuest is the producer body (normally cs.guest.Run).
func (cs *cosim) run(runGuest func() (*GuestResult, error)) (gres *GuestResult, err error) {
	if !cs.plan.Pipelined {
		return runGuest()
	}
	cs.cons.Start()
	// Flush-on-report barrier: publish the partial tail batch, close the
	// ring, and wait for the consumer to apply everything — on the error
	// path and when the guest panics too, so no goroutine outlives its
	// session and the machine is nobody's by the time it is released.
	defer func() {
		cs.enc.Close()
		cs.cons.Wait()
		if err == nil {
			err = cs.enc.Err()
		}
	}()
	// Label the producer stage so -cpuprofile output splits guest
	// simulation + trace synthesis from the consumer's uarch time.
	pprof.Do(context.Background(),
		pprof.Labels("cosim-stage", "guest-producer"),
		func(context.Context) { gres, err = runGuest() })
	return gres, err
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
			Plan:        cs.plan,
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
// result per member, in order. The members must share the guest, the
// normalised binary (HostCode) and the pipeline mode, and only a sweep of
// one may profile (SweepError otherwise); their hosts and scenarios may
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
// In pipelined mode each call adds one consumer goroutine for the duration
// of its run, and a sharded guest adds one shard worker plus one trace
// replayer, so a harness admitting Jobs concurrent calls runs at most
// Jobs x (1 + pipeline + 2 x sharded) simulation goroutines.
func RunSessions(cfgs []SessionConfig) ([]*SessionResult, error) {
	cs, err := newCosim(cfgs, false)
	if err != nil {
		return nil, err
	}
	defer cs.release()
	if err := cs.build(cfgs[0].Guest, nil); err != nil {
		return nil, err
	}
	gres, err := cs.run(cs.guest.Run)
	if err != nil {
		return nil, err
	}
	return cs.results(gres), nil
}
