package uarch_test

// Report identity per host class. The benchmark's workloads only ever
// build the Xeon, so a speed-up of the host structures could shift a
// statistic on a 12-way, 128-byte-line, DSB-less or LLC-less geometry
// unnoticed. This replays one deterministic hostmodel stream into each
// class, sink call by sink call and through ApplyBatch, requires equal
// Reports from the two routes and pins an FNV of the rendered Report per
// host, recorded before the cache layout was rebuilt.

import (
	"fmt"
	"hash/fnv"
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
// stream produces, recorded before the cache layout was rebuilt (PR 12's
// parent).
var hostClasses = []struct {
	cfg  uarch.Config
	want uint64
}{
	{platform.IntelXeon(), 0xfd5d8d79869a167d},
	{platform.M1Pro(), 0x195744cd12b06b65},       // 12-way, 128 B lines, no DSB
	{platform.FireSimBase(), 0x327953c53e5c446d}, // no LLC
	{platform.Contend(platform.IntelXeon(), platform.Scenario{Procs: 4, SMT: true}), 0x479d420836a9a03d},
}

// reportFNV hashes the rendered text plus every field at full precision.
func reportFNV(r uarch.Report) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\n%+v", r.String(), r)
	return h.Sum64()
}

// sinkCalls applies the records of head one sink call at a time, each
// address moved by shift.
func sinkCalls(m *uarch.Machine, head []ring.Batch, shift uint64) {
	for i := range head {
		for _, rec := range head[i].Records() {
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
		if got := reportFNV(laned.LaneReport(1)); got != tc.want {
			t.Errorf("%s as lane 1 of 3: Report FNV = %#x, want %#x", tc.cfg.Name, got, tc.want)
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
// holding something — and is then Reset for the pinned config alone.
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

		m.Reset(tc.cfg)
		if got := m.Config(); got != tc.cfg || m.Lanes() != 1 {
			t.Errorf("%s: Config() after Reset = %+v, %d lanes", tc.cfg.Name, got, m.Lanes())
		}
		if r := m.Report(); r.Uops != 0 || r.Cycles != 0 || r.DRAMBytes != 0 || r.LLCOccupancyBytes != 0 {
			t.Errorf("%s: Reset left counters behind: %+v", tc.cfg.Name, r)
		}
		mapStream(m)
		sinkCalls(m, head, 0)
		if got := reportFNV(m.Report()); got != tc.want {
			t.Errorf("%s: recycled machine: Report FNV = %#x, want %#x", tc.cfg.Name, got, tc.want)
		}
	}
}

// resetSets are the host sets TestResetToAnyHostsEqualsNewLanes and
// TestNewMachineAllocs move machines between: one host, then hosts of other
// geometries that share some units and not others, then fewer, then one.
func resetSets() [][]uarch.Config {
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

// TestResetToAnyHostsEqualsNewLanes: Reset takes any hosts — other
// geometries, more or fewer of them — and the machine then reports, lane for
// lane, what NewLanes of those hosts reports; an invalid host is refused as
// loudly as NewMachine refuses it.
func TestResetToAnyHostsEqualsNewLanes(t *testing.T) {
	head := capturedStream(t)
	head = head[:len(head)/8]
	run := func(m *uarch.Machine) []string {
		mapStream(m)
		for i := range head {
			m.ApplyBatch(&head[i])
		}
		out := make([]string, m.Lanes())
		for i := range out {
			out[i] = fmt.Sprintf("%+v", m.LaneReport(i))
		}
		return out
	}
	var m *uarch.Machine
	for n, hosts := range resetSets() {
		if m == nil {
			m = uarch.NewLanes(hosts...)
		} else {
			m.Reset(hosts...)
		}
		got, want := run(m), run(uarch.NewLanes(hosts...))
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("set %d, lane %d (%s): after Reset\n%s\nNewLanes\n%s", n, i, hosts[i].Name, got[i], want[i])
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset to an invalid host did not panic")
			}
		}()
		m.Reset(platform.IntelXeon(), uarch.Config{Name: "empty"})
	}()
}

// TestNewMachineAllocs: a machine costs its L1s, TLBs, predictor and one
// index word per L2/LLC set, not its capacity (10 MB and 4.5 MB of key rows
// when every level was dense); a Reset to as many lanes as the machine ever
// had allocates nothing; and a Reset to hosts it has modeled before, of
// however many geometries, allocates no structure.
func TestNewMachineAllocs(t *testing.T) {
	allocated := func(fn func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
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
		if mb := allocated(func() { m.Reset(tc.cfg) }); mb > 0.01 {
			t.Errorf("Reset(%s) allocated %.2f MB", tc.cfg.Name, mb)
		}
		// A sweep's lanes are built once: a machine that ran six hosts and
		// then one is re-armed for six again without allocating.
		six := []uarch.Config{tc.cfg, tc.cfg, tc.cfg, tc.cfg, tc.cfg, tc.cfg}
		m.Reset(six...)
		m.Reset(tc.cfg)
		if mb := allocated(func() { m.Reset(six...) }); mb > 0.01 {
			t.Errorf("Reset(%s x6) after a sweep of six allocated %.2f MB", tc.cfg.Name, mb)
		}
	}
	// Fig. 14's seven geometries, one host, and the seven again: the units
	// the first sweep built wait as spares.
	m := uarch.NewLanes(fig14Hosts()...)
	m.Reset(platform.IntelXeon())
	if mb := allocated(func() { m.Reset(fig14Hosts()...) }); mb > 0.01 {
		t.Errorf("a second Fig. 14 sweep allocated %.2f MB", mb)
	}
	for _, hosts := range append(resetSets(), resetSets()...) {
		m.Reset(hosts...)
	}
	if mb := allocated(func() {
		for _, hosts := range resetSets() {
			m.Reset(hosts...)
		}
	}); mb > 0.01 {
		t.Errorf("Resets through host sets the machine has modeled allocated %.2f MB", mb)
	}
}
