package experiments

import (
	"fmt"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/uarch"
)

func init() {
	register("fig10", runFig10)
	register("fig11", runFig11)
	register("fig12", runFig12)
	register("fig13", runFig13)
}

// hugePageSession is the PARSEC-representative cell with a text-backing
// mode; figs 10 and 11 share it.
func hugePageSession(opt Options, cpu core.CPUModel, hp uarch.HugePageMode) core.SessionConfig {
	host := platform.IntelXeon()
	host.HugePages = hp
	return core.SessionConfig{
		Guest: core.GuestConfig{
			CPU: cpu, Mode: core.SE,
			Workload: "water_nsquared", Scale: parsecRepScale(opt),
		},
		Host: host,
	}
}

// hugePageCells is the CPU-model x page-mode grid, CPU-major: one sweep of
// len(modes) hosts per CPU model, since the modes differ only in how the
// host backs the simulator's text.
func hugePageCells(opt Options, modes []uarch.HugePageMode) []core.SessionConfig {
	var cells []core.SessionConfig
	for _, cpu := range core.AllCPUModels {
		for _, hp := range modes {
			cells = append(cells, hugePageSession(opt, cpu, hp))
		}
	}
	return cells
}

// hugePageGrid runs the grid and returns modeled seconds indexed
// [cpu][mode]. Cells consume only SimSeconds, so the grid samples under
// -simpoint.
func hugePageGrid(opt Options, modes []uarch.HugePageMode) ([][]float64, error) {
	times, err := cellSeconds(opt, hugePageCells(opt, modes))
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(core.AllCPUModels))
	for ci := range out {
		out[ci] = times[ci*len(modes) : (ci+1)*len(modes)]
	}
	return out, nil
}

// runFig10 reproduces Fig. 10: simulation speedup from backing gem5's code
// with transparent (THP) and explicit (EHP) huge pages.
func runFig10(opt Options) (*Result, error) {
	res := &Result{
		ID:    "fig10",
		Title: "Speedup from huge-page code backing on Intel_Xeon (%)",
		Cols:  []string{"THP-speedup-%", "EHP-speedup-%"},
	}
	grid, err := hugePageGrid(opt, []uarch.HugePageMode{uarch.PagesBase, uarch.PagesTHP, uarch.PagesEHP})
	if err != nil {
		return nil, err
	}
	var best float64
	for ci, cpu := range core.AllCPUModels {
		base, thp, ehp := grid[ci][0], grid[ci][1], grid[ci][2]
		thpGain := pct(base/thp - 1)
		ehpGain := pct(base/ehp - 1)
		if thpGain > best {
			best = thpGain
		}
		if ehpGain > best {
			best = ehpGain
		}
		res.Rows = append(res.Rows, Row{Label: string(cpu), Values: []float64{thpGain, ehpGain}})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("best huge-page speedup %.1f%% (paper: up to 5.9%%; larger for detailed CPU models)", best),
		"paper: no consistent winner between EHP and THP",
	)
	sampledNote(opt, res)
	return res, nil
}

// runFig11 reproduces Fig. 11: iTLB overhead and retiring improvement from
// THP.
func runFig11(opt Options) (*Result, error) {
	res := &Result{
		ID:    "fig11",
		Title: "THP effect on iTLB overhead and retiring cycles on Intel_Xeon",
		Cols:  []string{"iTLB-overhead-reduction-%", "retiring-improvement-%"},
	}
	// Full co-simulations: fig11 needs the complete Top-Down report, which
	// sampling does not reconstruct.
	modes := []uarch.HugePageMode{uarch.PagesBase, uarch.PagesTHP}
	runs, err := runSweeps(opt.runner, hugePageCells(opt, modes), core.RunSessions)
	if err != nil {
		return nil, err
	}
	var reductions []float64
	for ci, cpu := range core.AllCPUModels {
		base, thp := runs[ci*len(modes)], runs[ci*len(modes)+1]
		reduction := 0.0
		if b := base.Host.TopDown.FELatITLB; b > 0 {
			reduction = pct(1 - thp.Host.TopDown.FELatITLB/b)
		}
		retireGain := pct(thp.Host.Level1.Retiring/base.Host.Level1.Retiring - 1)
		reductions = append(reductions, reduction)
		res.Rows = append(res.Rows, Row{Label: string(cpu), Values: []float64{reduction, retireGain}})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("mean iTLB overhead reduction %.0f%% (paper: 63%% on average)", meanf(reductions)),
		"paper: 3..7%% improvement in retiring cycles for Minor/O3",
	)
	return res, nil
}

// runFig12 reproduces Fig. 12: speedup from compiling gem5 with -O3 (a
// smaller binary) on each platform.
func runFig12(opt Options) (*Result, error) {
	res := &Result{
		ID:    "fig12",
		Title: "Speedup from the -O3 build (smaller code) per platform (%)",
		Cols:  []string{"atomic-%", "o3-%", "mean-%"},
	}
	cpus := []core.CPUModel{core.Atomic, core.O3}
	hostList := platform.TableIIPlatforms()
	perHost := len(cpus) * 2 // (base, -O3 build) per CPU model
	var cells []core.SessionConfig
	for i := 0; i < len(hostList)*perHost; i++ {
		host := hostList[i/perHost]
		cpu := cpus[i%perHost/2]
		gc := core.GuestConfig{CPU: cpu, Mode: core.SE,
			Workload: "water_nsquared", Scale: parsecRepScale(opt)}
		sc := core.SessionConfig{Guest: gc, Host: host}
		if i%2 == 1 { // the -O3 (smaller binary) build
			sc.HostCode = hostmodel.Config{SizeFactor: 0.97}
		}
		cells = append(cells, sc)
	}
	// Every cell runs alone: the hosts differ in Sizes, and the builds in
	// the binary.
	times, err := cellSeconds(opt, cells)
	if err != nil {
		return nil, err
	}
	for hi, host := range hostList {
		var gains []float64
		for ci := range cpus {
			base := times[hi*perHost+ci*2]
			o3b := times[hi*perHost+ci*2+1]
			gains = append(gains, pct(base/o3b-1))
		}
		res.Rows = append(res.Rows, Row{
			Label:  host.Name,
			Values: []float64{gains[0], gains[1], meanf(gains)},
		})
	}
	res.Notes = append(res.Notes,
		"paper: average speedups 1.38% (Xeon), 0.98% (M1_Pro), 0.78% (M1_Ultra); a few configurations regress",
	)
	sampledNote(opt, res)
	return res, nil
}

// runFig13 reproduces Fig. 13: simulation time versus the Xeon's operating
// frequency, normalized to 3.1 GHz.
func runFig13(opt Options) (*Result, error) {
	res := &Result{
		ID:    "fig13",
		Title: "Normalized simulation time vs Intel_Xeon frequency (3.1GHz = 1.0)",
		Cols:  []string{"normalized-time"},
	}
	freqs := []float64{1.2, 1.6, 2.1, 2.6, 3.1, 4.1} // 4.1 = Turbo Boost
	baseTime := 0.0
	// One sweep: the clock is a scalar of the host.
	cells := make([]core.SessionConfig, len(freqs))
	for i, f := range freqs {
		host := platform.IntelXeon()
		host.FreqGHz = f
		cells[i] = core.SessionConfig{
			Guest: core.GuestConfig{CPU: core.Timing, Mode: core.SE,
				Workload: "water_nsquared", Scale: parsecRepScale(opt)},
			Host: host,
		}
	}
	times, err := cellSeconds(opt, cells)
	if err != nil {
		return nil, err
	}
	for i, f := range freqs {
		if f == 3.1 {
			baseTime = times[i]
		}
	}
	for i, f := range freqs {
		label := fmt.Sprintf("%.1fGHz", f)
		if f == 4.1 {
			label += " (TurboBoost)"
		}
		res.Rows = append(res.Rows, Row{Label: label, Values: []float64{times[i] / baseTime}})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("1.2GHz runs %.2fx slower than 3.1GHz (paper: 2.67x; near-linear in frequency)",
			times[0]/baseTime),
	)
	sampledNote(opt, res)
	return res, nil
}
