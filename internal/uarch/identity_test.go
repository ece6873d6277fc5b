package uarch_test

// Report identity per host class. The benchmark's workloads only ever
// build the Xeon, so a speed-up of the host structures could shift a
// statistic on a 12-way, 128-byte-line, DSB-less or LLC-less geometry
// unnoticed. This replays one deterministic hostmodel stream into each
// class, sink call by sink call and through ApplyBatch, requires equal
// Reports from the two routes and pins an FNV of every field of the Report
// per host.

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/ring"
	"gem5prof/internal/uarch"
)

// hostStream is the head of one deterministic hostmodel stream, captured
// once for the tests below, and the address map it refers to.
var hostStream struct {
	once                   sync.Once
	err                    error
	head                   []ring.Batch
	text, heap, stackRange [2]uint64
}

// capturedStream captures the head of the stream the way a pipelined
// session carries it: hostmodel's own encoder into a ring, drained here.
func capturedStream(t *testing.T) []ring.Batch {
	t.Helper()
	hs := &hostStream
	hs.once.Do(func() {
		const records = 1 << 20
		rg := ring.New(8)
		enc := hostmodel.NewRingSink(rg)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for b := rg.Acquire(); b != nil; b = rg.Acquire() {
				if len(hs.head)*ring.BatchRecords < records {
					hs.head = append(hs.head, *b)
				}
				rg.Release()
			}
		}()
		hc := hostmodel.DefaultConfig()
		cm := hostmodel.New(hc, enc)
		g, err := core.BuildGuest(core.GuestConfig{CPU: core.O3, Mode: core.SE,
			Workload: "water_nsquared", Scale: 40, Seed: 1}, cm)
		if err == nil {
			_, err = g.Run()
		}
		enc.Close()
		<-drained
		if n := len(hs.head); err == nil && (n*ring.BatchRecords != records || hs.head[n-1].Len() != ring.BatchRecords) {
			err = fmt.Errorf("captured %d batches, want %d full ones", n, records/ring.BatchRecords)
		}
		hs.err = err
		hs.text[0], hs.text[1] = cm.TextRange()
		hs.heap[0], hs.heap[1] = cm.HeapRange()
		hs.stackRange = [2]uint64{hc.StackBase - (1 << 20), hc.StackBase + (1 << 12)}
	})
	if hs.err != nil {
		t.Fatal(hs.err)
	}
	return hs.head
}

// mapStream hands m the address map of the captured stream.
func mapStream(m *uarch.Machine) {
	hs := &hostStream
	m.MapText(hs.text[0], hs.text[1])
	m.MapData(hs.heap[0], hs.heap[1])
	m.MapData(hs.stackRange[0], hs.stackRange[1])
}

// hostClasses pins, per host class, an FNV of the Report the captured
// stream produces, every field at full precision.
var hostClasses = []struct {
	cfg  uarch.Config
	want uint64
}{
	{platform.IntelXeon(), 0xd9ad8eafcfc386eb},
	{platform.M1Pro(), 0x8695411d20a4fcb7},       // 12-way, 128 B lines, no DSB
	{platform.FireSimBase(), 0x0fda9e14ce84afdc}, // no LLC
	{platform.Contend(platform.IntelXeon(), platform.Scenario{Procs: 4, SMT: true}), 0x37a623f9e1f53318},
}

// plain is a Report without its String method, so that %v prints its
// fields rather than the rendered text.
type plain uarch.Report

// reportFNV hashes the rendered text plus every field at full precision.
func reportFNV(r uarch.Report) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\n%+v", r.String(), plain(r))
	return h.Sum64()
}

// sinkCalls applies the records of head one sink call at a time, each
// address moved by shift.
func sinkCalls(m *uarch.Machine, head []ring.Batch, shift uint64) {
	for i := range head {
		for _, rec := range head[i].Records() {
			sinkCall(m, &rec, shift)
		}
	}
}

// sinkCall applies rec as its sink call, each address moved by shift.
func sinkCall(m *uarch.Machine, rec *ring.Record, shift uint64) {
	switch rec.Op {
	case ring.OpFetch:
		m.FetchBlock(rec.Addr+shift, rec.A, rec.B)
	case ring.OpBranch:
		m.Branch(rec.Addr+shift, rec.Arg+shift,
			rec.Flags&ring.FlagTaken != 0, rec.Flags&ring.FlagIndirect != 0)
	case ring.OpData:
		m.Data(rec.Addr+shift, rec.A, rec.Flags&ring.FlagWrite != 0)
	}
}

func TestReportIdentityPerHostClass(t *testing.T) {
	head := capturedStream(t)
	for _, tc := range hostClasses {
		direct := uarch.NewMachine(tc.cfg)
		mapStream(direct)
		sinkCalls(direct, head, 0)
		batched := uarch.NewMachine(tc.cfg)
		mapStream(batched)
		for i := range head {
			batched.ApplyBatch(&head[i])
		}
		if d, b := direct.Report(), batched.Report(); d != b {
			t.Errorf("%s: sink calls and ApplyBatch disagree:\n%v\n%v", tc.cfg.Name, d, b)
		}
		if got := reportFNV(direct.Report()); got != tc.want {
			t.Errorf("%s: Report FNV = %#x, want %#x", tc.cfg.Name, got, tc.want)
		}
		// The same host as the middle lane of three: its report is the pin.
		laned := uarch.NewLanes(dirtied(tc.cfg, 0), tc.cfg, dirtied(tc.cfg, 1))
		mapStream(laned)
		for i := range head {
			laned.ApplyBatch(&head[i])
		}
		c := laned.Counts(1)
		if got := reportFNV(uarch.Price(&tc.cfg, &c)); got != tc.want {
			t.Errorf("%s as lane 1 of 3: Report FNV = %#x, want %#x", tc.cfg.Name, got, tc.want)
		}
	}
}

// TestCyclesIsTheReportsTotal: the profiler reads Cycles at every modeled
// function entry and exit, from the live units, and the figures read the
// Cycles of Price of a snapshot of the counts; after every record the two
// must be one pricing of the lane, bit for bit — on a one-host machine, on
// one without a uop cache (whose DSB slack is 1/0), and on lane 0 of three
// hosts of other scalars.
func TestCyclesIsTheReportsTotal(t *testing.T) {
	head := capturedStream(t)
	head = head[:len(head)/4]
	xeon := platform.IntelXeon()
	m1 := platform.M1Pro()
	for _, tc := range []struct {
		name string
		cfg  uarch.Config // lane 0's
		m    *uarch.Machine
	}{
		{"Xeon", xeon, uarch.NewMachine(xeon)},
		{"M1 Pro", m1, uarch.NewMachine(m1)},
		{"lane 0 of three", dirtied(xeon, 0), uarch.NewLanes(dirtied(xeon, 0), xeon, dirtied(xeon, 1))},
	} {
		name, m := tc.name, tc.m
		mapStream(m)
		reads := 0
		for i := range head {
			for _, rec := range head[i].Records() {
				sinkCall(m, &rec, 0)
				counts := m.Counts(0)
				c, r := m.Cycles(), uarch.Price(&tc.cfg, &counts).Cycles
				if math.Float64bits(c) != math.Float64bits(r) || math.IsNaN(c) || math.IsInf(c, 0) {
					t.Fatalf("%s, record %d: Cycles() = %v, Price(...).Cycles = %v", name, reads, c, r)
				}
				reads++
			}
		}
		if m.Cycles() == 0 {
			t.Errorf("%s: no cycles after %d records", name, reads)
		}
	}
}

// TestEmptyAccountPricesToZero: a machine that has counted nothing has no
// cycles, and so no IPC and no stall — not a NaN IPC over a full stall.
func TestEmptyAccountPricesToZero(t *testing.T) {
	for _, tc := range hostClasses {
		want := uarch.Report{Machine: tc.cfg.Name}
		if got := uarch.Price(&tc.cfg, &uarch.Counts{}); got != want {
			t.Errorf("%s: Price of no counts = %+v, want %+v", tc.cfg.Name, plain(got), plain(want))
		}
		if got := uarch.NewMachine(tc.cfg).Report(); got != want {
			t.Errorf("%s: Report of a new machine = %+v, want %+v", tc.cfg.Name, plain(got), plain(want))
		}
	}
}

// TestPriceIsPure: the counts are the measurement and a Report their price.
// Pricing one Counts twice gives one Report, and each lane of a machine of
// every host class counts what a machine of its host alone counts.
func TestPriceIsPure(t *testing.T) {
	head := capturedStream(t)
	head = head[:len(head)/4]
	var hosts []uarch.Config
	for _, tc := range hostClasses {
		hosts = append(hosts, tc.cfg)
	}
	laned := uarch.NewLanes(hosts...)
	mapStream(laned)
	sinkCalls(laned, head, 0)
	for i, h := range hosts {
		solo := uarch.NewMachine(h)
		mapStream(solo)
		sinkCalls(solo, head, 0)
		c := laned.Counts(i)
		if want := solo.Counts(0); c != want {
			t.Errorf("%s as lane %d: counts\n%+v\nalone\n%+v", h.Name, i, c, want)
		}
		if a, b := uarch.Price(&h, &c), uarch.Price(&h, &c); a != b || a.Cycles == 0 {
			t.Errorf("%s: two prices of one Counts:\n%+v\n%+v", h.Name, plain(a), plain(b))
		}
	}
}

// dirtied returns cfg with every scalar a lane owns moved, differently for
// each k: another clock, other latencies and widths, another MLP, and a
// THP-split text segment.
func dirtied(cfg uarch.Config, k int) uarch.Config {
	f := 1 + 0.35*float64(k+1)
	cfg.Name = fmt.Sprintf("dirty%d %s", k, cfg.Name)
	cfg.FreqGHz *= f
	cfg.HugePages, cfg.THPCoverage = uarch.PagesTHP, 0.37*f/2
	cfg.L2Cycles += 5 * f
	cfg.DRAMNanos *= f
	cfg.IssueWidth += f
	cfg.MLPOverlap /= f
	return cfg
}

// TestRecycledMachineIdentity makes reuse adversarial: every host class's
// machine first runs a sweep of six other hosts on the same caches, uop
// cache and predictor — other clocks, latencies and widths, THP-split text
// segments beside the class's own page backing, and a foreign data region,
// fed the stream at shifted addresses and then at its own, so that every
// cache, TLB, predictor table, stream tracker, counter and lane ends up
// holding something — and its units are then released and assembled for
// the pinned config alone.
// Replaying the captured stream must give the FNV a fresh machine gives;
// one surviving line, LRU position, region, memo or lane moves it.
func TestRecycledMachineIdentity(t *testing.T) {
	head := capturedStream(t)
	for _, tc := range hostClasses {
		var dirty []uarch.Config
		for k := 0; k < 6; k++ {
			dirty = append(dirty, dirtied(tc.cfg, k))
		}
		// One of them on the class's own translation unit.
		dirty[5].HugePages, dirty[5].THPCoverage = tc.cfg.HugePages, tc.cfg.THPCoverage
		m := uarch.NewLanes(dirty...)
		mapStream(m)
		m.MapData(0x5000_0000_0000, 0x5000_4000_0000)
		sinkCalls(m, head, 0x12340)
		// ... and then something familiar: the stream's own addresses, so
		// that a stale BTB entry or predictor counter would answer for the
		// replay's branches, ending on the replay's first fetch and first
		// data access, so that the L1s' same-line and the TLBs' same-page
		// memos point at exactly what the replay touches first.
		sinkCalls(m, head[:len(head)/4], 0)
		var fetched, touched bool
		for _, rec := range head[0].Records() {
			if rec.Op == ring.OpFetch && !fetched {
				m.FetchBlock(rec.Addr, rec.A, rec.B)
				fetched = true
			}
			if rec.Op == ring.OpData && !touched {
				m.Data(rec.Addr, rec.A, rec.Flags&ring.FlagWrite != 0)
				touched = true
			}
		}
		if m.Report().Uops == 0 {
			t.Fatalf("%s: the foreign stream left the machine clean", tc.cfg.Name)
		}

		m = uarch.Keeper{}.Reassemble(m, tc.cfg)
		if c, r := m.Counts(0), m.Report(); c != (uarch.Counts{}) || r != (uarch.Report{Machine: tc.cfg.Name}) {
			t.Errorf("%s: reassembly left counts behind, or another host: %+v, %+v", tc.cfg.Name, c, plain(r))
		}
		mapStream(m)
		sinkCalls(m, head, 0)
		if got := reportFNV(m.Report()); got != tc.want {
			t.Errorf("%s: recycled machine: Report FNV = %#x, want %#x", tc.cfg.Name, got, tc.want)
		}
	}
}

// hostSets are the host sets TestReassembleToAnyHostsEqualsNewLanes and
// TestNewMachineAllocs move units between: one host, then hosts of other
// geometries that share some units and not others, then fewer, then one.
func hostSets() [][]uarch.Config {
	xeon := platform.IntelXeon()
	return [][]uarch.Config{
		{xeon},
		append(fig14Hosts(), platform.M1Pro(), platform.Contend(xeon, platform.Scenario{Procs: 40, SMT: true}), dirtied(xeon, 0)),
		{platform.FireSimBase(), platform.M1Ultra()},
		{xeon},
	}
}

// fig14Hosts are Fig. 14's FireSim L1/L2 geometries: four L1 geometries a
// side and seven L2s on one predictor and one translation unit.
func fig14Hosts() []uarch.Config {
	return []uarch.Config{
		platform.FireSimRocket(8, 2, 8, 2, 512, 8),
		platform.FireSimRocket(16, 4, 16, 4, 512, 8),
		platform.FireSimRocket(32, 8, 32, 8, 512, 8),
		platform.FireSimRocket(8, 2, 8, 2, 1024, 8),
		platform.FireSimRocket(8, 2, 8, 2, 2048, 8),
		platform.FireSimRocket(32, 8, 32, 8, 1024, 8),
		platform.FireSimRocket(64, 16, 64, 16, 512, 8),
	}
}

// TestReassembleToAnyHostsEqualsNewLanes: the units a machine releases can
// be assembled for any hosts — other geometries, more or fewer of them — and
// the machine then counts, lane for lane, what NewLanes of those hosts
// counts; an invalid host is refused as loudly as NewMachine refuses it.
func TestReassembleToAnyHostsEqualsNewLanes(t *testing.T) {
	head := capturedStream(t)
	head = head[:len(head)/8]
	run := func(m *uarch.Machine, lanes int) []uarch.Counts {
		mapStream(m)
		for i := range head {
			m.ApplyBatch(&head[i])
		}
		out := make([]uarch.Counts, lanes)
		for i := range out {
			out[i] = m.Counts(i)
		}
		return out
	}
	k := uarch.Keeper{}
	var m *uarch.Machine
	for n, hosts := range hostSets() {
		if m == nil {
			m = uarch.NewLanes(hosts...)
		} else {
			m = k.Reassemble(m, hosts...)
		}
		got, want := run(m, len(hosts)), run(uarch.NewLanes(hosts...), len(hosts))
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("set %d, lane %d (%s): reassembled\n%+v\nNewLanes\n%+v", n, i, hosts[i].Name, got[i], want[i])
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("assembly for an invalid host did not panic")
			}
		}()
		k.Reassemble(m, platform.IntelXeon(), uarch.Config{Name: "empty"})
	}()
}

// TestNewMachineAllocs: a machine costs its L1s, TLBs, predictor and one
// index word per L2/LLC set, not its capacity (10 MB and 4.5 MB of key rows
// when every level was dense); a machine assembled from the units of one
// that modeled the same hosts allocates nothing to speak of, however many
// lanes; and one assembled for hosts whose units were kept, of however many
// geometries, allocates no structure.
func TestNewMachineAllocs(t *testing.T) {
	// What fn allocates, averaged over rounds calls, so that what the
	// runtime allocates meanwhile is not charged to one call.
	allocated := func(fn func()) float64 {
		const rounds = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds / (1 << 20)
	}
	for _, tc := range []struct {
		cfg   uarch.Config
		maxMB float64
	}{
		{platform.M1Ultra(), 1.5},
		{platform.IntelXeon(), 0.5},
	} {
		var m *uarch.Machine
		if mb := allocated(func() { m = uarch.NewMachine(tc.cfg) }); mb > tc.maxMB {
			t.Errorf("NewMachine(%s) allocated %.2f MB, want at most %.1f", tc.cfg.Name, mb, tc.maxMB)
		}
		k := uarch.Keeper{}
		if mb := allocated(func() { m = k.Reassemble(m, tc.cfg) }); mb > 0.01 {
			t.Errorf("reassembling %s allocated %.2f MB", tc.cfg.Name, mb)
		}
		// A sweep's units are built once: the units of a machine that ran
		// six hosts and then one are assembled for six again.
		six := []uarch.Config{tc.cfg, tc.cfg, tc.cfg, tc.cfg, tc.cfg, tc.cfg}
		m = k.Reassemble(m, six...)
		m = k.Reassemble(m, tc.cfg)
		if mb := allocated(func() { m = k.Reassemble(m, six...) }); mb > 0.01 {
			t.Errorf("reassembling %s x6 after a sweep of six allocated %.2f MB", tc.cfg.Name, mb)
		}
	}
	// Fig. 14's seven geometries, one host, and the seven again: the units
	// the first sweep built wait in the keeper.
	k, fig14 := uarch.Keeper{}, fig14Hosts()
	m := k.Reassemble(uarch.NewLanes(fig14...), platform.IntelXeon())
	if mb := allocated(func() { m = k.Reassemble(m, fig14...) }); mb > 0.01 {
		t.Errorf("a second Fig. 14 sweep allocated %.2f MB", mb)
	}
	sets := hostSets()
	for _, hosts := range append(sets, sets...) {
		m = k.Reassemble(m, hosts...)
	}
	if mb := allocated(func() {
		for _, hosts := range sets {
			m = k.Reassemble(m, hosts...)
		}
	}); mb > 0.01 {
		t.Errorf("reassembling for host sets whose units were kept allocated %.2f MB", mb)
	}
}

// TestPlatformPredictorsDifferential runs the predictor differential with the
// table and BTB sizes of every platform, each distinct pair once, named by
// them.
func TestPlatformPredictorsDifferential(t *testing.T) {
	seen := map[[2]int]bool{}
	for _, h := range append(platform.TableIIPlatforms(), platform.FireSimBase()) {
		sz := [2]int{h.BPTableEntries, h.BTBEntries}
		if seen[sz] {
			continue
		}
		seen[sz] = true
		t.Run(fmt.Sprintf("%d_%d", sz[0], sz[1]), func(t *testing.T) {
			uarch.CheckGshare(t, sz[0], sz[1], uarch.BranchStream(int64(sz[0]^sz[1]), 300000))
		})
	}
}
