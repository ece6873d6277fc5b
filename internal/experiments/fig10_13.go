package experiments

import (
	"fmt"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/uarch"
)

func init() {
	register("fig10", fig10Decl, runFig10)
	register("fig11", fig11Decl, runFig11)
	register("fig12", fig12Decl, runFig12)
	register("fig13", fig13Decl, runFig13)
}

// The sessions of figs 10-13. Figs 10, 12 and 13 read only modeled seconds,
// so they sample under -simpoint.
var (
	fig10Decl = seconds(fig10Cells)
	fig11Decl = full(fig11Cells)
	fig12Decl = seconds(fig12Cells)
	fig13Decl = seconds(fig13Cells)
)

// The page backings figs 10 and 11 compare.
var (
	fig10Modes = []uarch.HugePageMode{uarch.PagesBase, uarch.PagesTHP, uarch.PagesEHP}
	fig11Modes = []uarch.HugePageMode{uarch.PagesBase, uarch.PagesTHP}
)

func fig10Cells(opt Options) []core.SessionConfig { return hugePageCells(opt, fig10Modes) }
func fig11Cells(opt Options) []core.SessionConfig { return hugePageCells(opt, fig11Modes) }

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

// hugePageCells is the CPU-model x page-mode grid, CPU-major.
func hugePageCells(opt Options, modes []uarch.HugePageMode) []core.SessionConfig {
	var cells []core.SessionConfig
	for _, cpu := range core.AllCPUModels {
		for _, hp := range modes {
			cells = append(cells, hugePageSession(opt, cpu, hp))
		}
	}
	return cells
}

// runFig10 reproduces Fig. 10: simulation speedup from backing gem5's code
// with transparent (THP) and explicit (EHP) huge pages.
func runFig10(opt Options, cells []*cellRun) (*Result, error) {
	res := &Result{
		ID:    "fig10",
		Title: "Speedup from huge-page code backing on Intel_Xeon (%)",
		Cols:  []string{"THP-speedup-%", "EHP-speedup-%"},
	}
	times := secondsOf(cells)
	var best float64
	for ci, cpu := range core.AllCPUModels {
		row := times[ci*len(fig10Modes):]
		base, thp, ehp := row[0], row[1], row[2]
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
func runFig11(_ Options, cells []*cellRun) (*Result, error) {
	res := &Result{
		ID:    "fig11",
		Title: "THP effect on iTLB overhead and retiring cycles on Intel_Xeon",
		Cols:  []string{"iTLB-overhead-reduction-%", "retiring-improvement-%"},
	}
	// Full co-simulations: fig11 needs the complete Top-Down report, which
	// sampling does not reconstruct.
	var reductions []float64
	for ci, cpu := range core.AllCPUModels {
		base, thp := cells[ci*len(fig11Modes)].res, cells[ci*len(fig11Modes)+1].res
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

// fig12CPUs are the models of Fig. 12, each run with the base and the -O3
// build of the binary on every Table II platform.
var fig12CPUs = []core.CPUModel{core.Atomic, core.O3}

const fig12PerHost = 2 * 2 // (base, -O3 build) per CPU model

// fig12Cells is the host x CPU model x build grid, host-major.
func fig12Cells(opt Options) []core.SessionConfig {
	hostList := platform.TableIIPlatforms()
	var cells []core.SessionConfig
	for i := 0; i < len(hostList)*fig12PerHost; i++ {
		gc := core.GuestConfig{CPU: fig12CPUs[i%fig12PerHost/2], Mode: core.SE,
			Workload: "water_nsquared", Scale: parsecRepScale(opt)}
		sc := core.SessionConfig{Guest: gc, Host: hostList[i/fig12PerHost]}
		if i%2 == 1 { // the -O3 (smaller binary) build
			sc.HostCode = hostmodel.Config{SizeFactor: 0.97}
		}
		cells = append(cells, sc)
	}
	return cells
}

// runFig12 reproduces Fig. 12: speedup from compiling gem5 with -O3 (a
// smaller binary) on each platform.
func runFig12(opt Options, cells []*cellRun) (*Result, error) {
	res := &Result{
		ID:    "fig12",
		Title: "Speedup from the -O3 build (smaller code) per platform (%)",
		Cols:  []string{"atomic-%", "o3-%", "mean-%"},
	}
	times := secondsOf(cells)
	for hi, host := range platform.TableIIPlatforms() {
		var gains []float64
		for ci := range fig12CPUs {
			base := times[hi*fig12PerHost+ci*2]
			o3b := times[hi*fig12PerHost+ci*2+1]
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

// fig13Freqs are the Xeon clocks of Fig. 13; 4.1 is Turbo Boost.
var fig13Freqs = []float64{1.2, 1.6, 2.1, 2.6, 3.1, 4.1}

// fig13Cells is the Timing model on the Xeon at each clock.
func fig13Cells(opt Options) []core.SessionConfig {
	cells := make([]core.SessionConfig, len(fig13Freqs))
	for i, f := range fig13Freqs {
		host := platform.IntelXeon()
		host.FreqGHz = f
		cells[i] = core.SessionConfig{
			Guest: core.GuestConfig{CPU: core.Timing, Mode: core.SE,
				Workload: "water_nsquared", Scale: parsecRepScale(opt)},
			Host: host,
		}
	}
	return cells
}

// runFig13 reproduces Fig. 13: simulation time versus the Xeon's operating
// frequency, normalized to 3.1 GHz.
func runFig13(opt Options, cells []*cellRun) (*Result, error) {
	res := &Result{
		ID:    "fig13",
		Title: "Normalized simulation time vs Intel_Xeon frequency (3.1GHz = 1.0)",
		Cols:  []string{"normalized-time"},
	}
	freqs := fig13Freqs
	baseTime := 0.0
	times := secondsOf(cells)
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
