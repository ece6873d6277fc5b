package core_test

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/sim"
	"gem5prof/internal/simpoint"
	"gem5prof/internal/uarch"
)

// laneSweeps are the sweeps the lane identity tests run: every CPU model
// over the three page backings of the Xeon, Timing over the six clocks of
// Fig. 13, a pair that differs only in MLP, an M1 Pro pair (no DSB, 16 KB
// pages) that differs in clock, DRAM latency and text backing, a mix of
// hosts of five structure sizes — the three Table II platforms, a FireSim
// Rocket with no LLC, a contended Xeon — with a THP lane beside the Xeon's
// and a member asked for twice, and a sweep whose hosts share some units and
// not others: Fig. 14's seven FireSim geometries (four L1s each side, seven
// L2s, one predictor, one translation unit), the Xeon alone, beside 19
// co-runners (a partitioned LLC) and beside 39 on SMT (halved L1s, TLBs and
// DSB), the M1 Pro and M1 Ultra (the same L1s, predictor and TLBs) and two
// more Xeon clocks.
func laneSweeps() map[string][]core.SessionConfig {
	sweep := func(gc core.GuestConfig, hosts ...uarch.Config) []core.SessionConfig {
		out := make([]core.SessionConfig, len(hosts))
		for i, h := range hosts {
			out[i] = core.SessionConfig{Guest: gc, Host: h}
		}
		return out
	}
	with := func(h uarch.Config, edit func(*uarch.Config)) uarch.Config {
		edit(&h)
		return h
	}
	sieve := func(cpu core.CPUModel) core.GuestConfig {
		return core.GuestConfig{CPU: cpu, Mode: core.SE, Workload: "sieve", Scale: 256}
	}
	xeon := platform.IntelXeon()
	out := map[string][]core.SessionConfig{}
	for _, cpu := range core.AllCPUModels {
		var hosts []uarch.Config
		for _, hp := range []uarch.HugePageMode{uarch.PagesBase, uarch.PagesTHP, uarch.PagesEHP} {
			hosts = append(hosts, with(xeon, func(h *uarch.Config) { h.HugePages = hp }))
		}
		out[fmt.Sprintf("%s x pages", cpu)] = sweep(sieve(cpu), hosts...)
	}
	var clocks []uarch.Config
	for _, f := range []float64{1.2, 1.6, 2.1, 2.6, 3.1, 4.1} {
		clocks = append(clocks, with(xeon, func(h *uarch.Config) { h.FreqGHz = f }))
	}
	out["timing x clocks"] = sweep(sieve(core.Timing), clocks...)
	out["mlp"] = sweep(sieve(core.O3), xeon, with(xeon, func(h *uarch.Config) { h.MLPOverlap = 0 }))
	m1 := platform.M1Pro()
	out["m1 pro"] = sweep(sieve(core.Minor), m1, with(m1, func(h *uarch.Config) {
		h.FreqGHz, h.DRAMNanos, h.HugePages = 2.4, 120, uarch.PagesTHP
	}))
	mixed := sweep(sieve(core.O3), xeon, m1, with(xeon, func(h *uarch.Config) { h.HugePages = uarch.PagesTHP }),
		platform.M1Ultra(), platform.FireSimRocket(8, 2, 8, 2, 512, 8), xeon, xeon)
	mixed[5].Scenario = platform.Scenario{Procs: 4, SMT: true}
	out["mixed hosts"] = mixed
	shared := sweep(sieve(core.Timing), fig14Hosts()...)
	for _, sc := range []platform.Scenario{{Procs: 1}, {Procs: 20}, {Procs: 40, SMT: true}} {
		shared = append(shared, core.SessionConfig{Guest: sieve(core.Timing), Host: xeon, Scenario: sc})
	}
	shared = append(shared, sweep(sieve(core.Timing), m1, platform.M1Ultra(),
		with(xeon, func(h *uarch.Config) { h.FreqGHz = 2.1 }),
		with(xeon, func(h *uarch.Config) { h.FreqGHz = 4.1 }))...)
	out["shared structures"] = shared
	return out
}

// fig14Hosts are Fig. 14's FireSim L1/L2 geometries.
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

// TestLaneIdentity: every lane of a sweep counts what RunSession of its
// host alone counts, and so, Price being pure, reports what it reports —
// and the lanes share the one guest they ran.
func TestLaneIdentity(t *testing.T) {
	for name, cfgs := range laneSweeps() {
		solo := make([]uarch.Counts, len(cfgs))
		for i, sc := range cfgs {
			res, err := core.RunSession(sc)
			if err != nil {
				t.Fatalf("%s: host %d alone: %v", name, i, err)
			}
			solo[i] = res.Counts
		}
		res, err := core.RunSessions(cfgs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res) != len(cfgs) {
			t.Fatalf("%s: %d results for %d hosts", name, len(res), len(cfgs))
		}
		for i, r := range res {
			if r.Counts != solo[i] {
				t.Errorf("%s: lane %d (%s):\n%+v\nalone:\n%+v", name, i, cfgs[i].Host.Name, r.Counts, solo[i])
			}
			if r.Guest != res[0].Guest {
				t.Errorf("%s: lane %d has a guest result of its own", name, i)
			}
		}
	}
}

// TestIntervalLaneIdentity: a runner over a sweep measures, lane for lane
// and window for window, what a runner of each host alone measures — a
// fresh window, a restored one, and a restored one on the machine the first
// two warmed.
func TestIntervalLaneIdentity(t *testing.T) {
	data, _ := ffAndCheckpoint(t, "sieve", 1024, 2*sim.Microsecond)
	ck, err := core.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	windows := []struct {
		ck             *core.Checkpoint
		warmup, budget uint64
	}{{nil, 200, 900}, {ck, 100, 1000}, {ck, 0, 700}}
	measure := func(cfgs []core.SessionConfig) [][]*core.IntervalResult {
		t.Helper()
		r := core.NewIntervalRunner(cfgs)
		defer r.Close()
		var out [][]*core.IntervalResult
		for _, w := range windows {
			res, err := r.Run(w.ck, w.warmup, w.budget)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	clock := func(ivr *core.IntervalResult) string {
		return fmt.Sprintf("%v %v %d %v %v", ivr.Seconds, ivr.SubSeconds, ivr.Insts, ivr.SubInsts, ivr.Completed)
	}
	for name, cfgs := range laneSweeps() {
		switch name {
		case "timing x clocks", "o3 x pages", "m1 pro", "mixed hosts", "shared structures":
		default:
			continue
		}
		for i := range cfgs {
			cfgs[i].Guest.Scale = 1024
		}
		swept := measure(cfgs)
		for i := range cfgs {
			alone := measure(cfgs[i : i+1])
			for w := range windows {
				got, want := swept[w][i], alone[w][0]
				if clock(got) != clock(want) || got.Counts != want.Counts {
					t.Errorf("%s: window %d, lane %d:\n%s %+v\nalone:\n%s %+v", name, w, i,
						clock(got), got.Counts, clock(want), want.Counts)
				}
			}
		}
	}
}

// TestSweepDrawsAUnitPerKey: a sweep draws one unit per distinct key among
// its contended hosts and gives every one back — Fig. 14's seven FireSim
// geometries share one predictor, one uop cache (none) and one translation
// unit, and their four L1 geometries a side, and need an L2 and an LLC (none)
// for each of the seven (L1I, L1D, L2) — and a second sweep draws the same
// units again instead of building more. Members whose contended hosts are
// equal (asked for twice, or with a scenario that contends nothing) share a
// lane and count alike.
func TestSweepDrawsAUnitPerKey(t *testing.T) {
	gc := core.GuestConfig{CPU: core.O3, Mode: core.SE, Workload: "sieve", Scale: 256}
	var cfgs []core.SessionConfig
	for _, h := range fig14Hosts() {
		cfgs = append(cfgs, core.SessionConfig{Guest: gc, Host: h})
	}
	want := map[string]int{"L1I": 4, "L1D": 4, "L2": 7, "LLC": 7, "DSB": 1, "predictor": 1, "translation": 1}
	core.DropStores()
	for round := 0; round < 2; round++ {
		if _, err := core.RunSessions(cfgs); err != nil {
			t.Fatal(err)
		}
		if got := core.IdleUnits(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("sweep %d: idle units %v, want %v", round, got, want)
		}
	}

	thp := platform.IntelXeon()
	thp.HugePages = uarch.PagesTHP
	cfgs = []core.SessionConfig{
		{Guest: gc, Host: platform.IntelXeon()},
		{Guest: gc, Host: platform.M1Pro()},
		{Guest: gc, Host: thp},
		{Guest: gc, Host: platform.IntelXeon()},
		{Guest: gc, Host: platform.M1Ultra()},
		{Guest: gc, Host: platform.M1Pro(), Scenario: platform.Scenario{Procs: 1}},
	}
	res, err := core.RunSessions(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 3}, {1, 5}} {
		if a, b := res[pair[0]].Counts, res[pair[1]].Counts; a != b {
			t.Errorf("members %d and %d share a lane but count differently:\n%+v\n%+v", pair[0], pair[1], a, b)
		}
	}
}

// TestSweepRejections: a sweep whose members cannot share one guest is a
// *SweepError naming the field and the two members, from every entry point
// that takes a sweep, before a machine is drawn — never a panic. Members
// that differ only on the host side (host, scenario, a spelled-out default
// binary) or in the inert Seed, Shards, CalendarQueue and Pipeline are one
// sweep, and a sweep of members that differ only in the inert fields counts
// for each what it counts alone.
func TestSweepRejections(t *testing.T) {
	base := core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.Timing, Mode: core.SE, Workload: "sieve", Scale: 256},
		Host:  platform.IntelXeon(),
	}
	for _, tc := range []struct {
		field string
		edit  func(*core.SessionConfig)
	}{
		{"Guest", func(sc *core.SessionConfig) { sc.Guest.CPU = core.O3 }},
		{"Guest", func(sc *core.SessionConfig) { sc.Guest.ExecTrace = io.Discard }},
		{"HostCode", func(sc *core.SessionConfig) { sc.HostCode = hostmodel.Config{SizeFactor: 0.97} }},
		{"HostCode", func(sc *core.SessionConfig) { sc.HostCode.TextSlots = 2 }},
		{"Profile", func(sc *core.SessionConfig) { sc.Profile = true }},
	} {
		other := base
		tc.edit(&other)
		cfgs := []core.SessionConfig{base, base, other}
		core.DropStores()
		for entry, call := range map[string]func() error{
			"RunSessions": func() error { _, err := core.RunSessions(cfgs); return err },
			"IntervalRunner": func() error {
				r := core.NewIntervalRunner(cfgs)
				defer r.Close()
				_, err := r.Run(nil, 0, 100)
				return err
			},
			"RunSampledSweep": func() error { _, err := simpoint.RunSampledSweep(cfgs, simpoint.Config{}); return err },
		} {
			var se *core.SweepError
			if err := call(); !errors.As(err, &se) || se.Field != tc.field || se.A != 0 || se.B != 2 {
				t.Errorf("%s beside a different %s: got %v, want a SweepError for %s between members 0 and 2", entry, tc.field, err, tc.field)
			}
		}
		if _, nm, _ := core.StoreLens(); nm != 0 {
			t.Errorf("rejected sweep (%s) drew a unit", tc.field)
		}
	}
	// One profiled host is a sweep of one, and same-writer exec traces are
	// one guest.
	profiled := base
	profiled.Profile = true
	traced := base
	traced.Guest.ExecTrace = io.Discard
	hostSide := []core.SessionConfig{base, base, base, base, base}
	hostSide[1].Host = platform.M1Pro()
	hostSide[2].Host.DSBUops = 0
	hostSide[3].Scenario = platform.Scenario{Procs: 4}
	hostSide[4].HostCode = hostmodel.DefaultConfig()
	// Seed, Shards, CalendarQueue and Pipeline are read by nothing, so
	// members that differ only in them build one guest.
	inert := []core.SessionConfig{base, base, base, base, base}
	inert[1].Guest.Seed = 7
	inert[2].Guest.Shards = 2
	inert[3].Guest.CalendarQueue = true
	inert[4].Pipeline = core.PipelineOn
	inert[4].Host = platform.M1Pro()
	for _, cfgs := range [][]core.SessionConfig{{profiled}, {traced, traced}, hostSide, inert} {
		if err := core.CheckSweep(cfgs); err != nil {
			t.Errorf("%d members: %v", len(cfgs), err)
		}
	}
	res, err := core.RunSessions(inert)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range inert {
		solo, err := core.RunSession(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res[i].Counts != solo.Counts {
			t.Errorf("inert member %d counts in the sweep:\n%+v\nalone:\n%+v", i, res[i].Counts, solo.Counts)
		}
	}
	if _, err := core.RunSessions(nil); err == nil {
		t.Error("an empty sweep ran")
	}
}
