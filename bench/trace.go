package main

import (
	"fmt"
	"os"
	"time"

	"gem5prof/internal/ckptcache"
	"gem5prof/internal/core"
	"gem5prof/internal/experiments"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
	"gem5prof/internal/simpoint"
	"gem5prof/internal/uarch"
	"gem5prof/internal/workloads"
)

// tracePass is one traced run. It first runs the workload's own operations
// with spans, alternating with untraced ones to price the tracing, and then
// the probes that attribute host time to layers. The probes are the same
// for every workload: the layer peel needs a co-simulated session to peel,
// and a later change is read against all layers, whichever workload it
// aimed at.
type tracePass struct {
	sz      sizes
	seed    int64
	rec     *recorder
	scratch string // directory for the checkpoint-cache probes
	metrics map[string]metric
	errs    []string
}

func (t *tracePass) put(name, unit string, v float64) { t.metrics[name] = metric{v, unit} }

func (t *tracePass) errorf(format string, args ...any) {
	t.errs = append(t.errs, fmt.Sprintf(format, args...))
}

// runTrace is the -trace 1 run of one workload.
func runTrace(w workload, sz sizes, seed int64, seconds float64, scratch, spanPath string) (result, detail) {
	t := &tracePass{sz: sz, seed: seed, rec: newRecorder(), scratch: scratch, metrics: map[string]metric{}}
	res := result{Metrics: t.metrics}
	det := detail{Workload: w.name, Seed: seed}

	// The per-layer times are raw. The yardstick is sampled between the
	// probes, so that two traced passes can be put on one scale by hand.
	var speed hostSpeed
	speed.sample()
	first := t.workloadOps(w, seconds/4, &res)
	for _, probe := range []func() error{
		t.peel, t.mt4, t.micro, t.checkpoints, t.sampling, t.harness,
	} {
		speed.sample()
		if err := probe(); err != nil {
			t.errorf("%v", err)
		}
	}
	speed.sample()
	t.put("bench.host_slowdown", "x", speed.slowdown())
	t.put("bench.spans", "spans", float64(len(t.rec.spans)))

	if spanPath != "" {
		//lint:allow detflow a span file records wall-clock time on purpose; it is no simulator output
		if err := t.rec.writeSpans(spanPath); err != nil {
			t.errorf("span file: %v", err)
		}
		det.SpanFile = spanPath
	}
	det.Ops = res.Attempted
	det.StatsDigest = first.digest
	det.Errors = t.errs
	res.Correct = len(t.errs) == 0 && res.Failed == 0
	return res, det
}

// workloadOps alternates untraced and traced operations of the workload for
// about budget seconds and reports what the spans cost.
func (t *tracePass) workloadOps(w workload, budget float64, res *result) opResult {
	run, err := setUp(w, t.sz, t.seed)
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		t.errorf("set-up: %v", err)
		return opResult{}
	}
	var first opResult
	var plain, traced []float64
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for len(traced) == 0 || time.Now().Before(deadline) {
		for _, rec := range []*recorder{nil, t.rec} {
			rec.nextOp()
			end := rec.begin("op")
			var r opResult
			wall := timeIt(func() { r, err = run(rec) })
			end()
			res.Attempted++
			if err == nil && first.digest != "" && r.digest != first.digest {
				err = fmt.Errorf("stats digest %s differs from the first op's %s", r.digest, first.digest)
			}
			if err != nil {
				res.Failed++
				t.errorf("op %d: %v", res.Attempted, err)
				return first
			}
			if first.digest == "" {
				first = r
			}
			if rec == nil {
				plain = append(plain, wall)
			} else {
				traced = append(traced, wall)
			}
		}
	}
	opS := median(plain)
	t.put("bench.op_s", "s", opS)
	t.put("bench.trace_overhead_frac", "frac", median(traced)/opS-1)
	t.put("bench.guest_kips", "kinst/s", float64(first.insts)/opS/1e3)
	t.put("bench.sim_mev_s", "Mev/s", float64(first.events)/opS/1e6)
	return first
}

// timedRun times fn and keeps its error.
func timedRun(fn func() error) (float64, error) {
	var err error
	s := timeIt(func() { err = fn() })
	return s, err
}

// step is one named thing to time.
type step struct {
	name string
	run  func() error
}

// rounds runs every step k times round-robin, so that drift in the host's
// speed falls on all of them alike, and returns each step's median seconds.
func rounds(k int, steps []step) (map[string]float64, error) {
	samples := make([][]float64, len(steps))
	for i := 0; i < k; i++ {
		for j, st := range steps {
			s, err := timedRun(st.run)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", st.name, err)
			}
			samples[j] = append(samples[j], s)
		}
	}
	out := map[string]float64{}
	for j, st := range steps {
		out[st.name] = median(samples[j])
	}
	return out, nil
}

// stat reads one guest statistic. A missing name is an error of the probe,
// not a panic: a later change may rename statistics.
func (t *tracePass) stat(reg *sim.Registry, name string) float64 {
	s := reg.Lookup(name)
	if s == nil {
		t.errorf("guest statistic %q is gone", name)
		return 0
	}
	return s.Value()
}

// peel takes the canonical co-simulation apart one layer at a time. Each
// rung adds one layer to the rung below it, so a layer's self time is the
// difference of two rungs:
//
//	R1 the guest with ideal memory       (sim + cpu)
//	R2 the guest                         (+ mem)
//	R3 traced into a counting sink       (+ hostmodel)
//	R4 traced into the ring and dropped  (+ ring)
//	R5 traced into uarch.Machine         (+ uarch, over R3)
//
// R5 is the serial session assembled from public constructors; the real
// core.RunSession runs beside it serial, pipelined, sharded and profiled,
// and all five must agree on the statistics digest.
func (t *tracePass) peel() error {
	sc := cosimConfig(t.sz, t.seed, core.PipelineOff, core.ShardSerial)
	ideal := sc.Guest
	ideal.IdealMemory = true

	var guest *core.GuestResult
	var r3, r4, r5 *assembledRun
	digests := map[string]string{}
	session := func(name string, sc core.SessionConfig) step {
		return step{name, func() error {
			r, err := runSession(sc)
			digests[name] = r.digest
			return err
		}}
	}
	profiled := sc
	profiled.Profile = true
	spansFrom := len(t.rec.spans)
	med, err := rounds(t.sz.k, []step{
		{"R1", func() error { _, err := core.RunGuest(ideal); return err }},
		{"R2", func() (err error) { guest, err = core.RunGuest(sc.Guest); return }},
		{"R3", func() (err error) { r3, err = assembled(sc, sinkCount, nil, 0); return }},
		{"R4", func() (err error) { r4, err = assembled(sc, sinkRingDrain, nil, 0); return }},
		{"R5", func() (err error) {
			t.rec.nextOp()
			defer t.rec.begin("peel.R5")()
			r5, err = assembled(sc, sinkMachine, t.rec, 0)
			return
		}},
		session("serial", sc),
		session("pipelined", cosimConfig(t.sz, t.seed, core.PipelineOn, core.ShardSerial)),
		session("shards2", cosimConfig(t.sz, t.seed, core.PipelineOff, 2)),
		session("profiled", profiled),
	})
	if err != nil {
		return fmt.Errorf("peel: %w", err)
	}
	peelSpans := t.rec.spans[spansFrom:]

	// Every rung ran the same guest, and every full session the same
	// machine.
	want, err := sessionDigest(r5.guest, r5.report)
	if err != nil {
		return err
	}
	for _, name := range []string{"serial", "pipelined", "shards2", "profiled"} {
		if digests[name] != want.digest {
			t.errorf("peel: %s session digest %s differs from the assembled session's %s", name, digests[name], want.digest)
		}
	}
	for i, r := range []*assembledRun{r3, r4, r5} {
		if r.guest.Stats.Dump() != guest.Stats.Dump() {
			t.errorf("peel: guest statistics of R%d differ from the untraced guest's", i+3)
		}
	}
	if r4.records != r3.records {
		t.errorf("peel: the ring delivered %d records, the hostmodel made %d", r4.records, r3.records)
	}

	insts, records := float64(guest.Insts), float64(r3.records)
	hostmodelS := selfTime(med["R3"], med["R2"])
	ringS := selfTime(med["R4"], med["R3"])
	uarchS := selfTime(med["R5"], med["R3"])
	t.put("cpu.ideal_s", "s", med["R1"])
	t.put("cpu.o3_kips", "kinst/s", insts/med["R1"]/1e3)
	t.put("cpu.insts", "count", insts)
	t.put("sim.events", "count", float64(guest.HostEvents))
	t.put("mem.self_s", "s", selfTime(med["R2"], med["R1"]))
	t.put("mem.l1d_miss_frac", "frac", ratio(t.stat(guest.Stats, "sys.l1d0.misses"), t.stat(guest.Stats, "sys.l1d0.accesses")))
	t.put("mem.l2_miss_frac", "frac", ratio(t.stat(guest.Stats, "sys.l2.misses"), t.stat(guest.Stats, "sys.l2.accesses")))
	t.put("hostmodel.self_s", "s", hostmodelS)
	t.put("hostmodel.records", "count", records)
	t.put("hostmodel.calls", "count", float64(r3.calls))
	t.put("hostmodel.rec_per_inst", "rec/inst", records/insts)
	t.put("hostmodel.mrec_s", "Mrec/s", records/hostmodelS/1e6)
	t.put("ring.self_s", "s", ringS)
	t.put("ring.mrec_s", "Mrec/s", records/ringS/1e6)
	t.put("uarch.self_s", "s", uarchS)
	t.put("uarch.share_frac", "frac", uarchS/med["R5"])
	t.put("uarch.uops", "count", float64(r5.report.Uops))
	t.put("uarch.new_machine_us", "us", 1e6*median(durations(peelSpans, "uarch.NewMachine")))
	t.put("uarch.report_us", "us", 1e6*median(durations(peelSpans, "Machine.Report")))
	t.put("core.build_guest_s", "s", median(durations(peelSpans, "core.BuildGuest")))
	t.put("core.session_serial_s", "s", med["serial"])
	t.put("core.session_pipelined_s", "s", med["pipelined"])
	t.put("core.pipelined_ratio", "x", med["pipelined"]/med["serial"])
	t.put("core.peel_gap_frac", "frac", med["R5"]/med["serial"]-1)
	t.put("sim.cosim_shards2_ratio", "x", med["shards2"]/med["serial"])
	t.put("profiler.self_s", "s", selfTime(med["profiled"], med["serial"]))

	// Replay the head of the stream, captured in a run of its own so that
	// the copying stays out of R4, through a fresh machine: the consumer's
	// cost per record with no producer beside it.
	head, err := assembled(sc, sinkRingDrain, nil, t.sz.replayRecords)
	if err != nil {
		return fmt.Errorf("peel: capture: %w", err)
	}
	var replay []float64
	captured := 0
	for i := range head.captured {
		captured += head.captured[i].Len()
	}
	for i := 0; i < t.sz.k; i++ {
		m := uarch.NewMachine(sc.Host)
		mapMachine(m, head)
		replay = append(replay, timeIt(func() {
			for j := range head.captured {
				m.ApplyBatch(&head.captured[j])
			}
		}))
	}
	t.put("uarch.replay_ns_per_rec", "ns", 1e9*median(replay)/float64(captured))
	return nil
}

// mt4 times the 4-core guest against its own variants: ideal memory (so
// that the directory and caches have a self time), the calendar queue, and
// the widest per-core shard layout.
func (t *tracePass) mt4() error {
	results := map[string]*core.GuestResult{}
	variant := func(name string, edit func(*core.GuestConfig)) step {
		gc := mt4Config(t.sz, t.seed)
		edit(&gc)
		return step{name, func() error {
			res, err := core.RunGuest(gc)
			if err == nil && !res.ChecksumOK {
				err = fmt.Errorf("checksum %#x, want %#x", res.ExitCode, res.Expected)
			}
			results[name] = res
			return err
		}}
	}
	med, err := rounds(t.sz.k, []step{
		variant("serial", func(*core.GuestConfig) {}),
		variant("ideal", func(gc *core.GuestConfig) { gc.IdealMemory = true }),
		variant("calendar", func(gc *core.GuestConfig) { gc.CalendarQueue = true }),
		variant("shards5", func(gc *core.GuestConfig) { gc.Shards = 5 }),
	})
	if err != nil {
		return fmt.Errorf("mt4: %w", err)
	}
	serial := results["serial"]
	for _, name := range []string{"calendar", "shards5"} {
		if results[name].Stats.Dump() != serial.Stats.Dump() {
			t.errorf("mt4: %s statistics differ from the serial heap queue's", name)
		}
	}
	t.put("sim.mt4_mev_s", "Mev/s", float64(serial.HostEvents)/med["serial"]/1e6)
	t.put("sim.mt4_calendar_ratio", "x", med["calendar"]/med["serial"])
	t.put("sim.mt4_shards5_ratio", "x", med["shards5"]/med["serial"])
	t.put("mem.mt4_self_s", "s", selfTime(med["serial"], med["ideal"]))
	t.put("mem.dir_gets", "count", t.stat(serial.Stats, "sys.dir.getS"))
	t.put("mem.dir_getm", "count", t.stat(serial.Stats, "sys.dir.getM"))
	t.put("mem.dir_invals", "count", t.stat(serial.Stats, "sys.dir.invals"))
	return nil
}

// queueDepth64 returns the nanoseconds one service-and-reschedule takes on
// a queue holding 64 pending events, the regime the simulator runs in.
func queueDepth64(q sim.Queue, ops int) float64 {
	const depth = 64
	var freed *sim.Event
	for i := 0; i < depth; i++ {
		var e *sim.Event
		e = sim.NewEvent("e", 0, func() { freed = e })
		//lint:allow shardpost the probe times a bare queue backend; there is no System to route through
		q.Schedule(e, q.Now()+sim.Tick(1+(i*37)%997))
	}
	s := timeIt(func() {
		for i := 0; i < ops; i++ {
			q.ServiceOne()
			//lint:allow shardpost as above
			q.Schedule(freed, q.Now()+sim.Tick(1+(i*31)%997))
		}
	})
	return 1e9 * s / float64(ops)
}

// micro holds the probes that call one layer's hot function in a loop.
func (t *tracePass) micro() error {
	k := t.sz.k
	var heap, calendar, access, atomic, assemble []float64
	var atomicInsts uint64
	spec, _ := workloads.ByName("water_nsquared")
	for i := 0; i < k; i++ {
		heap = append(heap, queueDepth64(sim.NewHeapQueue(), t.sz.queueOps))
		calendar = append(calendar, queueDepth64(sim.NewCalendarQueue(1024, sim.Nanosecond), t.sz.queueOps))

		h := mem.NewHierarchy(sim.NewSystem(1), mem.DefaultHierarchyConfig("probe"))
		s := timeIt(func() {
			for j := 0; j < t.sz.memOps; j++ {
				h.L1D.AtomicLatency(mem.Access{Addr: uint32(j*64) % (1 << 22), Size: 8})
			}
		})
		access = append(access, 1e9*s/float64(t.sz.memOps))

		s, err := timedRun(func() error {
			res, err := core.RunGuest(core.GuestConfig{CPU: core.Atomic, Mode: core.SE,
				Workload: "sieve", Scale: t.sz.sieveScale, Seed: t.seed})
			if err == nil {
				atomicInsts = res.Insts
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("atomic guest: %w", err)
		}
		atomic = append(atomic, s)

		s, err = timedRun(func() error { _, _, err := spec.Build(t.sz.cosimScale); return err })
		if err != nil {
			return fmt.Errorf("assemble: %w", err)
		}
		assemble = append(assemble, 1e6*s)
	}
	t.put("sim.heap_d64_ns", "ns", median(heap))
	t.put("sim.calendar_d64_ns", "ns", median(calendar))
	t.put("mem.atomic_access_ns", "ns", median(access))
	t.put("cpu.atomic_kips", "kinst/s", float64(atomicInsts)/median(atomic)/1e3)
	t.put("workloads.assemble_us", "us", median(assemble))
	return nil
}

// checkpoints times the fast-forward vehicle's snapshot path and the
// on-disk cache under it.
func (t *tracePass) checkpoints() error {
	gc := core.GuestConfig{CPU: core.Atomic, Mode: core.SE,
		Workload: "water_nsquared", Scale: t.sz.cosimScale, Seed: t.seed}
	dir, err := os.MkdirTemp(t.scratch, "ckptprobe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := ckptcache.Open(dir)
	if err != nil {
		return err
	}
	var take, encode, restore, put, get []float64
	// lap times fn and appends its microseconds to dst.
	lap := func(dst *[]float64, fn func() error) error {
		s, err := timedRun(fn)
		*dst = append(*dst, 1e6*s)
		return err
	}
	for i := 0; i < t.sz.k; i++ {
		g, err := core.BuildGuest(gc, sim.NewNopTracer())
		if err != nil {
			return err
		}
		g.RunFor(2 * sim.Microsecond)
		var ck *core.Checkpoint
		var data []byte
		key := ckptcache.Key{Workload: "probe", ConfigPrefix: simpoint.ConfigPrefix(gc),
			FormatVersion: core.CheckpointVersion, Tick: uint64(i)}
		for _, l := range []struct {
			dst *[]float64
			fn  func() error
		}{
			{&take, func() (err error) { ck, err = g.TakeCheckpoint(); return }},
			{&encode, func() (err error) { data, err = ck.Encode(); return }},
			{&restore, func() error {
				back, err := core.DecodeCheckpoint(data)
				if err != nil {
					return err
				}
				_, err = core.RestoreGuest(gc, back, sim.NewNopTracer())
				return err
			}},
			{&put, func() error { return cache.Put(key, data) }},
			{&get, func() error {
				if _, ok := cache.Get(key); !ok {
					return fmt.Errorf("checkpoint cache lost an entry it just stored")
				}
				return nil
			}},
		} {
			if err := lap(l.dst, l.fn); err != nil {
				return fmt.Errorf("checkpoints: %w", err)
			}
		}
	}
	t.put("core.ckpt_take_us", "us", median(take))
	t.put("core.ckpt_encode_us", "us", median(encode))
	t.put("core.ckpt_restore_us", "us", median(restore))
	t.put("ckptcache.put_us", "us", median(put))
	t.put("ckptcache.get_us", "us", median(get))
	return nil
}

// sampling prices SimPoint sampling against the full sessions it stands in
// for, and the on-disk checkpoint cache against sampling without it.
func (t *tracePass) sampling() error {
	acc, err := sampledAccuracy(t.sz, t.seed)
	if err != nil {
		return fmt.Errorf("sampling: %w", err)
	}
	t.put("simpoint.full_s", "s", acc.fullS)
	t.put("simpoint.sampled_s", "s", acc.sampledS)
	t.put("simpoint.speedup_x", "x", acc.fullS/acc.sampledS)
	t.put("simpoint.err_max_pct", "%", acc.errMaxPct)
	t.put("simpoint.err_mean_pct", "%", acc.errMeanPct)

	dir, err := os.MkdirTemp(t.scratch, "ckptcache")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := ckptcache.Open(dir)
	if err != nil {
		return err
	}
	sc := cosimConfig(t.sz, t.seed, core.PipelineOff, core.ShardSerial)
	sampled := func(cache *ckptcache.Cache) func() error {
		return func() error {
			// Drop the in-process memo, so that only the directory can
			// spare the fast-forward.
			simpoint.ResetMemo()
			cfg := harnessSimpoint()
			cfg.Cache = cache
			//lint:allow detflow sc comes from the sizes and the seed; only the recorder beside them in tracePass holds wall-clock time
			_, err := simpoint.RunSampled(sc, cfg)
			return err
		}
	}
	if err := sampled(cache)(); err != nil { // populate
		return err
	}
	med, err := rounds(t.sz.k, []step{{"cold", sampled(nil)}, {"warm", sampled(cache)}})
	simpoint.ResetMemo()
	if err != nil {
		return fmt.Errorf("sampling: %w", err)
	}
	st := cache.Stats()
	t.put("simpoint.warm_cache_ratio", "x", med["warm"]/med["cold"])
	t.put("ckptcache.hit_frac", "frac", ratio(float64(st.Hits), float64(st.Hits+st.Misses)))
	return nil
}

// harness times the figure pool four ways on a small figure set: one
// worker, the defaults, the defaults with the pipeline forced off, and a
// second pass that may replay the memo caches.
func (t *tracePass) harness() error {
	ids := t.sz.probeIDs
	defer experiments.ResetCaches()
	spansFrom := len(t.rec.spans)
	suite := func(jobs int, rec *recorder) func() error {
		run := suiteOp(ids, experiments.Options{Quick: true, Jobs: jobs})
		return func() error { _, err := run(rec); return err }
	}
	pipeOff := func() error {
		core.SetDefaultPipeline(core.PipelineOff)
		defer core.SetDefaultPipeline(core.PipelineAuto)
		return suite(0, nil)()
	}
	memoReplay := func() error {
		_, err := runMany(ids, experiments.Options{Quick: true})
		return err
	}
	// memo must follow a pass that filled the caches; suiteOp resets them
	// on entry, so every other step starts cold.
	med, err := rounds(1, []step{
		{"j1", suite(1, nil)}, {"defaults", suite(0, t.rec)}, {"pipeoff", pipeOff}, {"memo", memoReplay},
	})
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	t.put("experiments.j1_s", "s", med["j1"])
	t.put("experiments.jobs_speedup_x", "x", med["j1"]/med["defaults"])
	t.put("experiments.pipeoff_ratio", "x", med["defaults"]/med["pipeoff"])
	t.put("experiments.memo_replay_s", "s", med["memo"])
	t.put("experiments.render_us", "us", 1e6*median(durations(t.rec.spans[spansFrom:], "Result.Render")))
	return nil
}
