// Package simpoint implements SimPoint-style sampled simulation: profile a
// workload cheaply on the Atomic CPU collecting basic-block vectors (BBVs)
// per fixed-instruction interval, cluster the intervals into phases with
// deterministic k-means, then co-simulate only one representative interval
// per phase on the expensive target model and extrapolate full-run
// statistics by cluster weight. This reproduces the methodology gem5
// exposes through --simpoint-profile/--simpoint-interval and the
// take/restore checkpoint flow the paper's experiments lean on.
package simpoint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"gem5prof/internal/core"
	"gem5prof/internal/isa"
	"gem5prof/internal/sim"
)

// Interval is one fixed-instruction slice of the profiled execution. Tick
// fields are Atomic-model guest times (used only to place checkpoints for
// the Atomic fast-forward); instruction counts are model-invariant and
// drive all warmup/measurement budgets.
type Interval struct {
	// StartInsts/StartTick mark the interval's first instruction.
	StartInsts uint64
	StartTick  sim.Tick
	// WarmInsts/WarmTick mark the warmup point WarmupInsts before the
	// interval starts — where the sampled runner places its checkpoint so
	// microarchitectural state re-warms before measurement. Zero for the
	// first interval (a fresh run needs no checkpoint).
	WarmInsts uint64
	WarmTick  sim.Tick
	// EndInsts/EndTick mark one past the interval's last instruction.
	EndInsts uint64
	EndTick  sim.Tick
	// Vec is the interval's dimension-reduced, frequency-normalized BBV.
	Vec []float64
}

// Insts returns the interval's instruction count (the tail interval may be
// shorter than the configured length).
func (iv Interval) Insts() uint64 { return iv.EndInsts - iv.StartInsts }

// Profile is the BBV profile of one complete workload execution.
type Profile struct {
	Intervals  []Interval
	TotalInsts uint64
	TotalTicks sim.Tick
	ExitCode   int
}

// bbvBuilder accumulates basic-block vectors from the commit hook. A basic
// block is identified by its leader PC: a new block starts after any
// control-flow or system instruction, or whenever the committed PC is not
// the sequential successor of the previous one (traps, interrupts).
type bbvBuilder struct {
	sys      *sim.System
	interval uint64
	dims     int

	n        uint64 // committed instructions so far
	lastPC   uint32
	newBlock bool
	leader   uint32
	counts   map[uint32]uint64

	nextWarm  uint64
	nextEnd   uint64
	warmMark  Interval // WarmInsts/WarmTick staged for the next interval
	cur       Interval
	intervals []Interval
}

func newBBVBuilder(sys *sim.System, interval, warmup uint64, dims int) *bbvBuilder {
	return &bbvBuilder{
		sys: sys, interval: interval, dims: dims,
		counts:   make(map[uint32]uint64),
		nextWarm: interval - warmup,
		nextEnd:  interval,
	}
}

func (b *bbvBuilder) onCommit(pc uint32, in isa.Inst) {
	if b.n == 0 || b.newBlock || pc != b.lastPC+4 {
		b.leader = pc
	}
	b.newBlock = in.IsControl() || in.IsSystem()
	b.lastPC = pc
	b.counts[b.leader]++
	b.n++
	if b.n == b.nextWarm {
		b.warmMark = Interval{WarmInsts: b.n, WarmTick: b.sys.Now()}
		b.nextWarm += b.interval
	}
	if b.n == b.nextEnd {
		b.close()
		b.nextEnd += b.interval
	}
}

// close finishes the current interval at the present commit point and
// starts the next one.
func (b *bbvBuilder) close() {
	iv := b.cur
	iv.EndInsts = b.n
	iv.EndTick = b.sys.Now()
	iv.Vec = project(b.counts, b.dims)
	b.intervals = append(b.intervals, iv)
	b.cur = Interval{
		StartInsts: b.n, StartTick: b.sys.Now(),
		WarmInsts: b.warmMark.WarmInsts, WarmTick: b.warmMark.WarmTick,
	}
	b.counts = make(map[uint32]uint64)
}

// finish flushes a partial tail interval after the workload exits.
func (b *bbvBuilder) finish() []Interval {
	if b.n > b.cur.StartInsts {
		b.close()
	}
	return b.intervals
}

// project reduces a basic-block count map to a dims-dimensional vector via
// a deterministic pseudo-random projection: each block leader contributes
// its execution frequency along a direction derived by hashing (leader,
// dimension). Leaders are visited in sorted order so the float summation
// is identical on every run and host (same non-commutativity discipline as
// the stat extrapolation).
func project(counts map[uint32]uint64, dims int) []float64 {
	leaders := make([]uint32, 0, len(counts))
	//lint:deterministic keys are sorted before use
	for pc := range counts {
		leaders = append(leaders, pc)
	}
	sort.Slice(leaders, func(i, j int) bool { return leaders[i] < leaders[j] })
	var total uint64
	for _, pc := range leaders {
		total += counts[pc]
	}
	vec := make([]float64, dims)
	if total == 0 {
		return vec
	}
	for _, pc := range leaders {
		w := float64(counts[pc]) / float64(total)
		for d := 0; d < dims; d++ {
			vec[d] += w * projCoeff(pc, d)
		}
	}
	return vec
}

// projCoeff returns the deterministic projection coefficient in [-1, 1)
// for one (block leader, dimension) pair.
func projCoeff(pc uint32, d int) float64 {
	h := fnv.New64a()
	var b [12]byte
	binary.LittleEndian.PutUint32(b[:4], pc)
	binary.LittleEndian.PutUint64(b[4:], uint64(d))
	h.Write(b[:])
	return float64(int64(h.Sum64())) / float64(uint64(1)<<63)
}

// buildProfile runs the workload to completion on the Atomic CPU (the
// cheap model — this is the "fast" pass of fast-forward sampling) with the
// BBV hook attached, slicing execution into interval-sized pieces.
func buildProfile(gc core.GuestConfig, interval, warmup uint64, dims int) (*Profile, error) {
	gc = gc.Normalized()
	gc.CPU = core.Atomic
	gc.ExecTrace = nil
	g, err := core.BuildGuest(gc, sim.NewNopTracer())
	if err != nil {
		return nil, err
	}
	b := newBBVBuilder(g.Sys, interval, warmup, dims)
	for _, c := range g.CPUs {
		c.Core().SetCommitHook(b.onCommit)
	}
	res, err := g.Run()
	for _, c := range g.CPUs {
		c.Core().SetCommitHook(nil)
	}
	if err != nil {
		return nil, fmt.Errorf("simpoint: profile run: %w", err)
	}
	ivs := b.finish()
	if len(ivs) == 0 {
		return nil, fmt.Errorf("simpoint: workload committed no instructions")
	}
	return &Profile{
		Intervals:  ivs,
		TotalInsts: b.n,
		TotalTicks: res.SimTicks,
		ExitCode:   res.ExitCode,
	}, nil
}
