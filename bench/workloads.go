package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"gem5prof/internal/core"
	"gem5prof/internal/experiments"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/ring"
	"gem5prof/internal/sim"
	"gem5prof/internal/simpoint"
	"gem5prof/internal/uarch"
	"gem5prof/internal/workloads"
)

// sizes fixes how much work one operation of each workload does. The full
// sizes are the benchmark; the smoke sizes only prove that every path runs
// (bench_test.go).
type sizes struct {
	cosimScale int // water_nsquared problem size of the co-simulated session
	sieveScale int // sieve size of the Atomic guest; the guest_atomic workload states the cap
	mtScale    int // matmul_mt problem size of the 4-core guest (0 = the workload's default)
	sampledIDs []string
	harnessIDs []string
	// probeIDs is the smaller figure set the trace pass times four ways
	// (-j 1, defaults, PipelineOff, memo replay); it must include the
	// shared Top-Down set so that the pipeline default has sessions to act on.
	probeIDs []string
	// queueOps, memOps and replayRecords size the micro-probes.
	queueOps, memOps, replayRecords int
	// k is how many times the trace pass repeats each rung and probe.
	k int
}

var fullSizes = sizes{
	cosimScale: 40,
	sieveScale: 32768,
	mtScale:    0,
	sampledIDs: []string{"fig10", "fig12", "fig13"},
	// One shared Top-Down measurement (eight sessions and three SPEC
	// models) replayed by four more figures through the memo cache, and the
	// two tables: the pool, the cross-figure cache, default knob resolution
	// and rendering, at ~1.2 s per pass so that a run holds eight. Every
	// further figure is more sessions of the same kinds and fewer passes.
	harnessIDs:    []string{"fig02", "fig03", "fig04", "fig05", "fig06", "table1", "table2"},
	probeIDs:      []string{"fig02", "fig03"},
	queueOps:      2_000_000,
	memOps:        2_000_000,
	replayRecords: 1 << 20,
	k:             3,
}

var smokeSizes = sizes{
	cosimScale:    12,
	sieveScale:    512,
	mtScale:       64,
	sampledIDs:    []string{"fig13"},
	harnessIDs:    []string{"table1", "table2"},
	probeIDs:      []string{"table1"},
	queueOps:      20_000,
	memOps:        20_000,
	replayRecords: 1 << 12,
	k:             1,
}

// opResult is what one operation produced: a digest of its complete output
// and the exact work counts the rates are computed from (zero where the
// public API does not expose them).
type opResult struct {
	digest string
	insts  uint64
	events uint64
}

// op runs one operation, recording spans around its layer calls when rec is
// non-nil.
type op func(rec *recorder) (opResult, error)

// workload is one named input set. prepare turns the seed into the
// operation; verify, run once after the timed operations, holds the checks
// that need a second configuration.
type workload struct {
	name string
	why  string
	// warm is how many operations one set-up runs before timing starts.
	warm    int
	prepare func(sz sizes, seed int64) (op, error)
	verify  func(sz sizes, seed int64, digest string) error
}

var allWorkloads = []workload{
	{
		name: "cosim_serial",
		why:  "the paper's unit of measurement on one goroutine: an O3 guest traced through hostmodel into uarch.Machine, which does ~90% of the work; the ring is bypassed",
		warm: 1,
		prepare: func(sz sizes, seed int64) (op, error) {
			return sessionOp(cosimConfig(sz, seed, core.PipelineOff, core.ShardSerial))
		},
		verify: func(sz sizes, seed int64, digest string) error {
			return sameSessionDigest(digest,
				cosimConfig(sz, seed, core.PipelineOn, core.ShardSerial),
				cosimConfig(sz, seed, core.PipelineOff, 2))
		},
	},
	{
		name: "cosim_pipelined",
		why:  "the same sessions with the producer and uarch consumer on two goroutines over the ring: shows a serial-path gain that costs the pipelined path, and the ring's own cost",
		warm: 1,
		prepare: func(sz sizes, seed int64) (op, error) {
			return sessionOp(cosimConfig(sz, seed, core.PipelineOn, core.ShardSerial))
		},
		verify: func(sz sizes, seed int64, digest string) error {
			return sameSessionDigest(digest,
				cosimConfig(sz, seed, core.PipelineOff, core.ShardSerial),
				cosimConfig(sz, seed, core.PipelineOff, 2))
		},
	},
	{
		name: "guest_atomic",
		why:  "the fast-forward path: Atomic CPU, ISA decode and the per-instruction event round-trip, with no caches, tracer, ring or host model",
		warm: 3,
		prepare: func(sz sizes, seed int64) (op, error) {
			// Keep the scale at or below 32768: sieve's signed i*i wraps
			// at 46341 and the checksum goes false at 65536.
			return guestOp(core.GuestConfig{CPU: core.Atomic, Mode: core.SE,
				Workload: "sieve", Scale: sz.sieveScale, Seed: seed})
		},
	},
	{
		name: "guest_mt4",
		why:  "a 4-core Timing guest with no tracer: bound by the event queue and the coherence directory, the workload for queue and shard decisions",
		warm: 3,
		prepare: func(sz sizes, seed int64) (op, error) {
			return guestOp(mt4Config(sz, seed))
		},
	},
	{
		name: "sampled_suite",
		why:  "the sampled figures at -j 1 from cold caches: BBV profiling, k-means, Atomic fast-forward, checkpoints and interval sessions, which the full-length runs bypass",
		warm: 1,
		prepare: func(sz sizes, seed int64) (op, error) {
			return suiteOp(shuffled(sz.sampledIDs, seed),
				experiments.Options{Quick: true, Jobs: 1, SimPoint: true}), nil
		},
		verify: func(sz sizes, seed int64, _ string) error {
			acc, err := sampledAccuracy(sz, seed)
			if err != nil {
				return err
			}
			if acc.errMaxPct > sampledErrorBoundPct {
				return fmt.Errorf("sampled seconds off by %.1f%% from the full session (documented bound %.0f%%)",
					acc.errMaxPct, sampledErrorBoundPct)
			}
			return nil
		},
	},
	{
		name: "harness_quick",
		why:  "what users run: figures on the experiments pool with every knob at its process default, sharing the Top-Down memo cache, rendered to text",
		warm: 1,
		prepare: func(sz sizes, seed int64) (op, error) {
			return suiteOp(shuffled(sz.harnessIDs, seed),
				experiments.Options{Quick: true}), nil
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cosimConfig is the canonical co-simulation of the repository (the
// PARSEC representative on the O3 model, profiled on the Xeon).
func cosimConfig(sz sizes, seed int64, pipe core.PipelineMode, shards core.ShardMode) core.SessionConfig {
	return core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.O3, Mode: core.SE,
			Workload: "water_nsquared", Scale: sz.cosimScale, Seed: seed, Shards: shards},
		Host:     platform.IntelXeon(),
		Pipeline: pipe,
	}
}

func mt4Config(sz sizes, seed int64) core.GuestConfig {
	return core.GuestConfig{CPU: core.Timing, Mode: core.SE, Workload: "matmul_mt",
		Scale: sz.mtScale, Cores: 4, Shards: core.ShardSerial, Seed: seed}
}

// shuffled returns ids in an order drawn from the seed. The experiments
// derive their own per-cell seeds, so the order in which the figures are
// submitted to the pool is the input a seed can vary.
func shuffled(ids []string, seed int64) []string {
	out := append([]string(nil), ids...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkAssembles assembles the guest program once, so that a bad workload
// name or scale fails in set-up and not in the first timed operation.
func checkAssembles(gc core.GuestConfig) error {
	spec, ok := workloads.ByName(gc.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", gc.Workload)
	}
	scale := gc.Scale
	if scale == 0 {
		scale = spec.DefaultScale
	}
	_, _, err := spec.Build(scale)
	return err
}

// guestDigest checks a guest's checksum and digests its statistics, followed
// by the host report when a machine consumed its trace.
func guestDigest(g *core.GuestResult, host ...string) (opResult, error) {
	if !g.ChecksumOK {
		return opResult{}, fmt.Errorf("guest checksum %#x, want %#x", g.ExitCode, g.Expected)
	}
	digest := digestOf(append([]string{g.Stats.Dump()}, host...)...)
	return opResult{digest: digest, insts: g.Insts, events: g.HostEvents}, nil
}

// guestOp is core.RunGuest spelled out, so that the traced pass can put a
// span around each half.
func guestOp(gc core.GuestConfig) (op, error) {
	if err := checkAssembles(gc); err != nil {
		return nil, err
	}
	return func(rec *recorder) (opResult, error) {
		end := rec.begin("core.BuildGuest")
		g, err := core.BuildGuest(gc, sim.NewNopTracer())
		end()
		if err != nil {
			return opResult{}, err
		}
		end = rec.begin("GuestSystem.Run")
		res, err := g.Run()
		end()
		if err != nil {
			return opResult{}, err
		}
		return guestDigest(res)
	}, nil
}

func sessionDigest(g *core.GuestResult, host uarch.Report) (opResult, error) {
	return guestDigest(g, host.String())
}

// runSession is core.RunSession followed by the output checks.
func runSession(sc core.SessionConfig) (opResult, error) {
	res, err := core.RunSession(sc)
	if err != nil {
		return opResult{}, err
	}
	return sessionDigest(res.Guest, res.Host)
}

// sessionOp times core.RunSession, the call users make. With a recorder it
// runs the same session assembled from the layers' public constructors
// (assembled), which yields the same digest and lets spans sit between the
// layers.
func sessionOp(sc core.SessionConfig) (op, error) {
	if err := checkAssembles(sc.Guest); err != nil {
		return nil, err
	}
	sink := sinkMachine
	if sc.Pipeline == core.PipelineOn {
		sink = sinkRingMachine
	}
	return func(rec *recorder) (opResult, error) {
		if rec != nil {
			run, err := assembled(sc, sink, rec, 0)
			if err != nil {
				return opResult{}, err
			}
			return sessionDigest(run.guest, run.report)
		}
		return runSession(sc)
	}, nil
}

// sameSessionDigest runs each variant once and requires its statistics to
// match digest bit for bit: pipelining and sharding are pure speed knobs.
func sameSessionDigest(digest string, variants ...core.SessionConfig) error {
	for _, sc := range variants {
		r, err := runSession(sc)
		if err != nil {
			return err
		}
		if r.digest != digest {
			return fmt.Errorf("pipeline=%v shards=%v: stats digest %s differs from %s",
				sc.Pipeline, sc.Guest.Shards, r.digest, digest)
		}
	}
	return nil
}

// runMany collects experiments.RunMany's outcomes in ids order.
func runMany(ids []string, opt experiments.Options) ([]*experiments.Result, error) {
	var results []*experiments.Result
	var firstErr error
	// Drain every outcome even after an error: RunMany's goroutines block
	// on the channel until it is read to the end.
	for oc := range experiments.RunMany(ids, opt) {
		if oc.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", oc.ID, oc.Err)
		}
		results = append(results, oc.Res)
	}
	return results, firstErr
}

// suiteOp regenerates figures from cold caches and renders them, the way
// cmd/experiments does.
func suiteOp(ids []string, opt experiments.Options) op {
	return func(rec *recorder) (opResult, error) {
		experiments.ResetCaches()
		end := rec.begin("experiments.RunMany")
		results, err := runMany(ids, opt)
		end()
		if err != nil {
			return opResult{}, err
		}
		end = rec.begin("Result.Render")
		var b strings.Builder
		for _, r := range results {
			b.WriteString(r.Render())
		}
		end()
		return opResult{digest: digestOf(b.String())}, nil
	}
}

// sampledErrorBoundPct and harnessSimpoint restate what
// internal/experiments keeps unexported (sampledErrorBoundPct,
// Options.simpointConfig): the documented accuracy bound of the sampled
// figures and the sampling parameters they run with.
const sampledErrorBoundPct = 25.0

func harnessSimpoint() simpoint.Config {
	return simpoint.Config{IntervalInsts: 500, WarmupInsts: 1, MaxK: 3}
}

// accuracy compares sampled and full co-simulation of the same cells.
type accuracy struct {
	fullS, sampledS       float64 // host seconds, summed over the cells
	errMaxPct, errMeanPct float64 // modeled-seconds error of sampled against full
}

// sampledAccuracy measures what the sampled figures report, modeled host
// seconds, on three cells they sweep (each CPU class on the Xeon) with
// sampling and without. The figures' rows are differences of such cells, so
// the error is taken here on the cells, where it is well conditioned.
func sampledAccuracy(sz sizes, seed int64) (accuracy, error) {
	var acc accuracy
	cpus := []core.CPUModel{core.Atomic, core.Timing, core.O3}
	simpoint.ResetMemo()
	for _, cpu := range cpus {
		sc := cosimConfig(sz, seed, core.PipelineOff, core.ShardSerial)
		sc.Guest.CPU = cpu
		var full *core.SessionResult
		var sampled *simpoint.Result
		var err error
		acc.fullS += timeIt(func() { full, err = core.RunSession(sc) })
		if err != nil {
			return acc, err
		}
		acc.sampledS += timeIt(func() { sampled, err = simpoint.RunSampled(sc, harnessSimpoint()) })
		if err != nil {
			return acc, err
		}
		e := 100 * math.Abs(sampled.Seconds-full.SimSeconds()) / full.SimSeconds()
		acc.errMaxPct = math.Max(acc.errMaxPct, e)
		acc.errMeanPct += e / float64(len(cpus))
	}
	return acc, nil
}

// sinkKind selects what consumes the hostmodel's record stream in an
// assembled session; each kind is one rung of the layer peel.
type sinkKind int

const (
	sinkCount       sinkKind = iota // count records and drop them: hostmodel alone
	sinkRingDrain                   // encode into the ring, drained by a goroutine that drops batches
	sinkMachine                     // straight into uarch.Machine: the serial session
	sinkRingMachine                 // ring plus uarch.Consumer: the pipelined session
)

// countingSink is the cheapest possible hostmodel.Sink.
type countingSink struct{ records uint64 }

func (s *countingSink) FetchBlock(_ uint64, _, _ uint32) { s.records++ }
func (s *countingSink) Branch(_, _ uint64, _, _ bool)    { s.records++ }
func (s *countingSink) Data(_ uint64, _ uint32, _ bool)  { s.records++ }

// ringSlots restates core's unexported ring capacity.
const ringSlots = 8

// assembledRun is what one assembled session yields.
type assembledRun struct {
	guest   *core.GuestResult
	report  uarch.Report // zero unless a machine consumed the stream
	records uint64       // records the sink saw (0 for sinkMachine, which does not count)
	calls   uint64       // simulator function invocations replayed by the hostmodel
	// captured holds the first batches of the stream (sinkRingDrain with
	// capture > 0), and text/heap/stack the address map they refer to.
	captured             []ring.Batch
	text, heap, stackMap [2]uint64
}

// assembled builds and runs one co-simulation from the layers' public
// constructors, mirroring core.RunSession step for step, with a span around
// each call. capture is how many records of the stream to keep
// (sinkRingDrain only).
func assembled(sc core.SessionConfig, kind sinkKind, rec *recorder, capture int) (*assembledRun, error) {
	out := &assembledRun{}
	var machine *uarch.Machine
	if kind == sinkMachine || kind == sinkRingMachine {
		end := rec.begin("uarch.NewMachine")
		machine = uarch.NewMachine(platform.Contend(sc.Host, sc.Scenario))
		end()
	}
	var sink hostmodel.Sink
	var counter *countingSink
	var enc *hostmodel.RingSink
	var rg *ring.Ring
	switch kind {
	case sinkCount:
		counter = &countingSink{}
		sink = counter
	case sinkMachine:
		sink = machine
	default:
		rg = ring.New(ringSlots)
		enc = hostmodel.NewRingSink(rg)
		sink = enc
	}
	hc := hostmodel.DefaultConfig()
	end := rec.begin("hostmodel.New")
	cm := hostmodel.New(hc, sink)
	end()

	end = rec.begin("core.BuildGuest")
	g, err := core.BuildGuest(sc.Guest, cm)
	end()
	if err != nil {
		return nil, err
	}
	tb, te := cm.TextRange()
	hb, he := cm.HeapRange()
	out.text, out.heap = [2]uint64{tb, te}, [2]uint64{hb, he}
	out.stackMap = [2]uint64{hc.StackBase - (1 << 20), hc.StackBase + (1 << 12)}
	if machine != nil {
		mapMachine(machine, out)
	}

	// The consumer side of the ring: uarch's own consumer, or a drain that
	// only counts (and keeps the first capture records).
	var cons *uarch.Consumer
	drained := make(chan uint64, 1)
	switch kind {
	case sinkRingMachine:
		cons = uarch.NewConsumer(machine, rg)
		cons.Start()
	case sinkRingDrain:
		go func() {
			var n uint64
			for b := rg.Acquire(); b != nil; b = rg.Acquire() {
				if int(n) < capture {
					out.captured = append(out.captured, *b)
				}
				n += uint64(b.Len())
				rg.Release()
			}
			drained <- n
		}()
	}

	end = rec.begin("GuestSystem.Run")
	out.guest, err = g.Run()
	end()
	// Close and wait on the error path too, so that no goroutine outlives
	// the session.
	if enc != nil {
		end = rec.begin("ring.drain")
		enc.Close()
		if cons != nil {
			cons.Wait()
		} else {
			out.records = <-drained
		}
		end()
		if err == nil {
			err = enc.Err()
		}
	}
	if err != nil {
		return nil, err
	}
	if counter != nil {
		out.records = counter.records
	}
	out.calls = cm.Calls()
	if machine != nil {
		end = rec.begin("Machine.Report")
		out.report = machine.Report()
		end()
	}
	return out, nil
}

// mapMachine hands the simulator binary's address map to the machine's
// TLBs, as core does once the guest is built.
func mapMachine(m *uarch.Machine, run *assembledRun) {
	m.MapText(run.text[0], run.text[1])
	m.MapData(run.heap[0], run.heap[1])
	m.MapData(run.stackMap[0], run.stackMap[1])
}
