package simpoint

import (
	"fmt"
	"sort"

	"gem5prof/internal/ckptcache"
	"gem5prof/internal/core"
	"gem5prof/internal/sim"
)

// Config parameterizes sampled simulation.
type Config struct {
	// IntervalInsts is the profiling interval length in committed
	// instructions (gem5's --simpoint-interval; default 1000, minimum 128
	// so an interval always spans several Atomic event batches).
	IntervalInsts uint64
	// WarmupInsts is how many instructions before each representative the
	// checkpoint is placed, re-warming caches/predictors before the
	// measured window. 0 means IntervalInsts/4. Must stay below
	// IntervalInsts.
	WarmupInsts uint64
	// MaxK bounds the number of phases (default 6).
	MaxK int
	// Cache, when non-nil, persists fast-forward checkpoints across
	// analyses and processes. No harness
	// sets it any more (a warm cache measured 0.99x a cold one); it stays
	// because bench/ compiles against it.
	Cache *ckptcache.Cache
}

// The analysis constants: the BBV projection's dimensionality and the
// seed of the k-means initialization. The seed is part of the analysis,
// not the guest: checkpoints are seed-independent.
const (
	bbvDims    = 16
	kmeansSeed = 1
)

func (c Config) withDefaults() Config {
	if c.IntervalInsts == 0 {
		c.IntervalInsts = 1000
	}
	if c.IntervalInsts < 128 {
		c.IntervalInsts = 128
	}
	if c.WarmupInsts == 0 {
		c.WarmupInsts = c.IntervalInsts / 4
	}
	if c.WarmupInsts >= c.IntervalInsts {
		c.WarmupInsts = c.IntervalInsts - 1
	}
	if c.MaxK <= 0 {
		c.MaxK = 6
	}
	return c
}

// RepRun is the measurement of one representative interval.
type RepRun struct {
	// Rep is the representative's interval index; Weight and ClusterInsts
	// come from its cluster.
	Rep          int
	Weight       float64
	ClusterInsts uint64
	// Insts/Seconds are the measured window on the target model.
	Insts   uint64
	Seconds float64
	// Rate is the seconds-per-instruction the extrapolation used: the
	// steady-state estimate for restored windows (see steadyRate), the
	// plain window average for a fresh-start representative.
	Rate float64
}

// Result is one sampled co-simulation.
type Result struct {
	// Seconds is the extrapolated modeled host time of the full run — the
	// sampled stand-in for SessionResult.SimSeconds().
	Seconds float64
	// K and NumIntervals describe the clustering that produced it.
	K            int
	NumIntervals int
	// TotalInsts is the profiled full-run instruction count.
	TotalInsts uint64
	// Reps holds the per-phase measurements in cluster order.
	Reps []RepRun
}

// ConfigPrefix renders every GuestConfig field that can alter guest
// execution into a canonical string. It deliberately excludes Seed, Shards
// and CalendarQueue (nothing reads them — TestCheckpointSeedInvariance pins
// Seed),
// ExecTrace (observation only), and CPU (instruction streams are
// model-invariant; the profile and checkpoints always come from the Atomic
// model regardless of the measured target).
func ConfigPrefix(gc core.GuestConfig) string {
	gc = gc.Normalized()
	return fmt.Sprintf("mode=%s workload=%s scale=%d bootexit=%v bootkbs=%d ncpu=%d ideal=%v gtlb=%v",
		gc.Mode, gc.Workload, gc.Scale, gc.BootExit, gc.BootKBs, gc.Cores,
		gc.IdealMemory, gc.GuestTLBs)
}

// Analysis is the work shared by every sampled co-simulation of one config
// family under one Config: the BBV profile, the clustering and the restore
// checkpoints. It is read-only once Analyze returns, so any number of
// Sweeps, concurrent or not, may share one; whoever computes it decides how
// often it is computed.
type Analysis struct {
	prefix string
	prof   *Profile
	phases Phases
	ckpts  []*core.Checkpoint // per cluster; nil for a fresh-start rep
}

// Analyze profiles gc's config family on the Atomic model, clusters its
// intervals and acquires one restore checkpoint per phase (from cfg.Cache
// when it holds them).
func Analyze(gc core.GuestConfig, cfg Config) (*Analysis, error) {
	gc = gc.Normalized()
	if gc.Mode == core.SE && gc.Cores > 1 {
		return nil, fmt.Errorf("simpoint: sampled mode is single-core only (BBV profiles and checkpoints capture one architectural thread); run the multicore guest full-length")
	}
	cfg = cfg.withDefaults()
	a := &Analysis{prefix: ConfigPrefix(gc)}
	var err error
	if a.prof, err = buildProfile(gc, cfg.IntervalInsts, cfg.WarmupInsts, bbvDims); err != nil {
		return nil, err
	}
	a.phases = clusterIntervals(a.prof.Intervals, cfg.MaxK, kmeansSeed)
	if a.ckpts, err = acquireCheckpoints(gc, a.prefix, cfg, a.prof, a.phases); err != nil {
		return nil, err
	}
	return a, nil
}

// ResetMemo does nothing: the package keeps no analysis between calls
// (Analyze returns one to whoever asked). It stays because bench/ calls it.
func ResetMemo() {}

// RunSampled runs one co-simulation in sampled mode and returns the
// extrapolated result: RunSampledSweep of one.
func RunSampled(sc core.SessionConfig, cfg Config) (*Result, error) {
	res, err := RunSampledSweep([]core.SessionConfig{sc}, cfg)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunSampledSweep runs one guest on several hosts in sampled mode: Analyze
// of its guest, then that analysis's Sweep, with a sweep that cannot run
// refused before anything is analyzed.
func RunSampledSweep(scs []core.SessionConfig, cfg Config) ([]*Result, error) {
	if err := checkSweep(scs); err != nil {
		return nil, err
	}
	a, err := Analyze(scs[0].Guest, cfg)
	if err != nil {
		return nil, err
	}
	return a.Sweep(scs)
}

// checkSweep refuses what no analysis can sample: a sweep core.RunSessions
// would not accept (core.SweepError), and the function profiler.
func checkSweep(scs []core.SessionConfig) error {
	if err := core.CheckSweep(scs); err != nil {
		return err
	}
	if scs[0].Profile {
		return fmt.Errorf("simpoint: sampled mode cannot host the function profiler (its report would cover only representative intervals)")
	}
	return nil
}

// Sweep measures a's representative windows for one guest of a's family on
// several hosts and returns one extrapolated result per member, in order.
// The sweep is what core.RunSessions accepts (core.SweepError otherwise):
// each window is measured once for every host, on the machine of one
// core.IntervalRunner, and each member's result is what RunSampled of that
// member alone returns.
func (a *Analysis) Sweep(scs []core.SessionConfig) ([]*Result, error) {
	if err := checkSweep(scs); err != nil {
		return nil, err
	}
	if p := ConfigPrefix(scs[0].Guest); p != a.prefix {
		return nil, fmt.Errorf("simpoint: the guest %s is not of the analyzed family %s", p, a.prefix)
	}
	outs := make([]*Result, len(scs))
	for i := range outs {
		outs[i] = &Result{
			K:            a.phases.K,
			NumIntervals: len(a.prof.Intervals),
			TotalInsts:   a.prof.TotalInsts,
		}
	}
	// Measure each representative, then extrapolate. The windows run
	// serially on one IntervalRunner, so the modeled host machine stays
	// warm across them (as it would across one long full run), and each
	// host's sum runs in cluster-index order — a fixed, clustering-derived
	// order — because float addition is non-commutative and the report must
	// be byte-identical at any -j.
	runner := core.NewIntervalRunner(scs)
	defer runner.Close()
	for ci, cl := range a.phases.Clusters {
		iv := a.prof.Intervals[cl.Rep]
		var ivrs []*core.IntervalResult
		var err error
		if a.ckpts[ci] == nil {
			// The representative starts at (or is) the first interval:
			// run fresh from the workload entry.
			ivrs, err = runner.Run(nil, iv.StartInsts, iv.Insts())
		} else {
			ck := a.ckpts[ci]
			// The checkpoint lands on an Atomic event boundary at or
			// shortly after the warm mark, so budgets derive from the
			// actual checkpointed instruction count, not the mark.
			warm := uint64(0)
			if iv.StartInsts > ck.Insts {
				warm = iv.StartInsts - ck.Insts
			}
			start := iv.StartInsts
			if ck.Insts > start {
				start = ck.Insts
			}
			ivrs, err = runner.Run(ck, warm, iv.EndInsts-start)
		}
		if err != nil {
			return nil, fmt.Errorf("simpoint: interval %d (cluster %d): %w", cl.Rep, ci, err)
		}
		for i, ivr := range ivrs {
			rep := RepRun{
				Rep: cl.Rep, Weight: cl.Weight, ClusterInsts: cl.Insts,
				Insts: ivr.Insts, Seconds: ivr.Seconds,
				Rate: steadyRate(ivr, a.ckpts[ci] != nil),
			}
			outs[i].Reps = append(outs[i].Reps, rep)
			outs[i].Seconds += float64(rep.ClusterInsts) * rep.Rate
		}
	}
	return outs, nil
}

// steadyRate returns the modeled seconds-per-instruction of one measured
// window, extrapolated to steady state when the window was restored from a
// checkpoint. A checkpoint carries architectural state only, so the target
// model starts the window with cold caches, TLBs and predictors; the
// warmup absorbs part of that transient and the rest decays across the
// window, inflating its average rate. The residual shows up as a
// geometric-looking decay across the window's three sub-window rates, so
// Aitken Δ² extrapolation (steady = r3 − Δ2·ρ/(1−ρ), ρ = Δ2/Δ1) removes
// it at zero extra simulation cost. When the decay assumption does not
// hold — rates not strictly decreasing, or the projection non-positive —
// the plain window average is used unchanged. A slow decay (ρ near 1)
// makes the projection explode, so a projected residual larger than half
// the final sub-window's rate is distrusted and the final sub-window —
// the least transient-polluted direct observation — is used instead.
// Fresh-start windows always use the plain average: their cold start is
// the run's real one.
func steadyRate(ivr *core.IntervalResult, restored bool) float64 {
	avg := ivr.Seconds / float64(ivr.Insts)
	if !restored || len(ivr.SubSeconds) != 3 {
		return avg
	}
	var r [3]float64
	for i := range r {
		if ivr.SubInsts[i] == 0 {
			return avg
		}
		r[i] = ivr.SubSeconds[i] / float64(ivr.SubInsts[i])
	}
	d1, d2 := r[0]-r[1], r[1]-r[2]
	if d1 <= 0 || d2 <= 0 || d2 >= d1 {
		return avg // not a decaying transient
	}
	rho := d2 / d1
	tail := d2 * rho / (1 - rho)
	if tail > r[2]/2 {
		return r[2] // projection overshoots; trust the last observation
	}
	steady := r[2] - tail
	if steady <= 0 || steady > avg {
		return avg
	}
	return steady
}

// cacheKey derives the content address of the checkpoint at warmTick.
func cacheKey(gc core.GuestConfig, prefix string, warmTick sim.Tick) ckptcache.Key {
	return ckptcache.Key{
		Workload:      fmt.Sprintf("%s@%d", gc.Workload, gc.Scale),
		ConfigPrefix:  prefix,
		FormatVersion: core.CheckpointVersion,
		Tick:          uint64(warmTick),
	}
}

// acquireCheckpoints returns one restore checkpoint per cluster (nil for
// representatives that start the run fresh). Cache hits are verified twice
// — content hash in the cache layer, then DecodeCheckpoint + a tick match
// here — so a corrupted or version-skewed entry degrades to re-simulation,
// never to restoring garbage. All misses are filled by a single Atomic
// fast-forward pass visiting the missing warm ticks in ascending order.
func acquireCheckpoints(gc core.GuestConfig, prefix string, cfg Config, prof *Profile, phases Phases) ([]*core.Checkpoint, error) {
	ckpts := make([]*core.Checkpoint, len(phases.Clusters))
	var missing []int // cluster indices
	for ci, cl := range phases.Clusters {
		iv := prof.Intervals[cl.Rep]
		if iv.StartInsts == 0 {
			continue // fresh start; no checkpoint needed
		}
		if data, ok := cfg.Cache.Get(cacheKey(gc, prefix, iv.WarmTick)); ok {
			ck, err := core.DecodeCheckpoint(data)
			if err == nil && ck.Tick == iv.WarmTick {
				ckpts[ci] = ck
				continue
			}
			// Hash-valid but semantically unusable (e.g. written by an
			// incompatible build): treat as a miss.
		}
		missing = append(missing, ci)
	}
	if len(missing) == 0 {
		return ckpts, nil
	}
	sort.Slice(missing, func(i, j int) bool {
		return prof.Intervals[phases.Clusters[missing[i]].Rep].WarmTick <
			prof.Intervals[phases.Clusters[missing[j]].Rep].WarmTick
	})

	ffCfg := gc
	ffCfg.CPU = core.Atomic
	ffCfg.ExecTrace = nil
	g, err := core.BuildGuest(ffCfg, sim.NewNopTracer())
	if err != nil {
		return nil, err
	}
	for _, ci := range missing {
		iv := prof.Intervals[phases.Clusters[ci].Rep]
		if res := g.RunTo(iv.WarmTick); res.Status != sim.ExitLimit {
			return nil, fmt.Errorf("simpoint: fast-forward ended at tick %d before warm tick %d (%v)",
				res.Now, iv.WarmTick, res.Status)
		}
		ck, err := g.TakeCheckpoint()
		if err != nil {
			return nil, fmt.Errorf("simpoint: checkpoint at tick %d: %w", iv.WarmTick, err)
		}
		ckpts[ci] = ck
		if cfg.Cache != nil {
			if data, err := ck.Encode(); err == nil {
				// Best-effort: a failed Put only costs a future
				// re-simulation.
				_ = cfg.Cache.Put(cacheKey(gc, prefix, iv.WarmTick), data)
			}
		}
	}
	return ckpts, nil
}
