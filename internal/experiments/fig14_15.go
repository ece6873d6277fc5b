package experiments

import (
	"fmt"

	"gem5prof/internal/core"
	"gem5prof/internal/platform"
	"gem5prof/internal/uarch"
)

func init() {
	register("fig14", fig14Decl, runFig14)
	register("fig15", fig15Decl, runFig15)
}

var (
	fig14Decl = full(fig14Cells)
	fig15Decl = full(fig15Cells)
)

// fig14Geometries lists the FireSim host cache configurations the paper
// sweeps, in the figure's (iL1 size/ways : dL1 size/ways : L2 size/ways)
// notation. The first entry is the normalization baseline.
func fig14Geometries() []uarch.Config {
	return []uarch.Config{
		platform.FireSimRocket(8, 2, 8, 2, 512, 8), // baseline
		platform.FireSimRocket(16, 4, 16, 4, 512, 8),
		platform.FireSimRocket(32, 8, 32, 8, 512, 8),
		platform.FireSimRocket(8, 2, 8, 2, 1024, 8),
		platform.FireSimRocket(8, 2, 8, 2, 2048, 8),
		platform.FireSimRocket(32, 8, 32, 8, 1024, 8),
		platform.FireSimRocket(64, 16, 64, 16, 512, 8),
	}
}

// fig14CPUs are the gem5 CPU models run on FireSim.
var fig14CPUs = []core.CPUModel{core.Atomic, core.Timing, core.O3}

// fig14Cells is the geometry x CPU model grid on the Sieve of
// Eratosthenes, geometry-major.
func fig14Cells(opt Options) []core.SessionConfig {
	scale := 4096
	if opt.Quick {
		scale = 1536
	}
	var cells []core.SessionConfig
	for _, host := range fig14Geometries() {
		for _, cpu := range fig14CPUs {
			cells = append(cells, core.SessionConfig{
				Guest: core.GuestConfig{CPU: cpu, Mode: core.SE, Workload: "sieve", Scale: scale},
				Host:  host,
			})
		}
	}
	return cells
}

// runFig14 reproduces Fig. 14: gem5 simulation speedup on FireSim with
// varying host L1/L2 geometry (the Sieve of Eratosthenes workload, SE mode).
// Each CPU model's seven hosts ride one co-simulation.
func runFig14(_ Options, cells []*cellRun) (*Result, error) {
	res := &Result{
		ID:    "fig14",
		Title: "gem5-on-FireSim speedup vs host cache configuration (baseline 8KB/2:8KB/2:512KB/8 = 1.0)",
		Cols:  []string{"atomic", "timing", "o3"},
	}
	geoms := fig14Geometries()
	nCPU := len(fig14CPUs)
	times := secondsOf(cells)
	for ci, host := range geoms {
		row := Row{Label: host.Name}
		for cj := range fig14CPUs {
			row.Values = append(row.Values, times[cj]/times[ci*nCPU+cj])
		}
		res.Rows = append(res.Rows, row)
	}
	l1Jump := res.Rows[1]
	bestRow := res.Rows[len(res.Rows)-1]
	l2Only := res.Rows[4]
	res.Notes = append(res.Notes,
		fmt.Sprintf("8KB→16KB L1s: atomic/timing/o3 speedups %.2fx/%.2fx/%.2fx (paper: time −30%%/−25%%/−18%%)",
			l1Jump.Values[0], l1Jump.Values[1], l1Jump.Values[2]),
		fmt.Sprintf("best config 64KB/16-way L1s: %.2fx/%.2fx/%.2fx (paper: +68.7%%/+68.2%%/+43.8%%)",
			bestRow.Values[0], bestRow.Values[1], bestRow.Values[2]),
		fmt.Sprintf("L2 512KB→2MB alone: %.2fx/%.2fx/%.2fx (paper: almost no impact)",
			l2Only.Values[0], l2Only.Values[1], l2Only.Values[2]),
		"paper: O3 benefits less from larger L1s (the TLB bottleneck limits the gain)",
	)
	return res, nil
}

// fig15Cells profiles every CPU model on the Xeon; a profiled session runs
// alone.
func fig15Cells(opt Options) []core.SessionConfig {
	cells := make([]core.SessionConfig, len(core.AllCPUModels))
	for i, cpu := range core.AllCPUModels {
		cells[i] = core.SessionConfig{
			Guest: core.GuestConfig{CPU: cpu, Mode: core.SE,
				Workload: "water_nsquared", Scale: parsecRepScale(opt)},
			Host:    platform.IntelXeon(),
			Profile: true,
		}
	}
	return cells
}

// runFig15 reproduces Fig. 15: the CDF of CPU time over the 50 hottest
// gem5 functions per CPU type, plus the total number of functions called.
func runFig15(_ Options, cells []*cellRun) (*Result, error) {
	res := &Result{
		ID:    "fig15",
		Title: "Hot-function concentration per CPU model (water_nsquared on Intel_Xeon)",
		Cols:  []string{"hottest-fn-%", "top10-cum-%", "top50-cum-%", "funcs-called", "funcs-total"},
	}
	paperHottest := map[core.CPUModel]float64{
		core.Atomic: 10.1, core.Timing: 8.5, core.Minor: 2.9, core.O3: 4.2,
	}
	paperCalled := map[core.CPUModel]int{
		core.Atomic: 1602, core.Timing: 2557, core.Minor: 3957, core.O3: 5209,
	}
	for ci, cpu := range core.AllCPUModels {
		r := cells[ci].res
		cdf := r.Prof.CDF(50)
		top1 := pct(cdf[0])
		top10 := pct(cdf[min(9, len(cdf)-1)])
		top50 := pct(cdf[len(cdf)-1])
		res.Rows = append(res.Rows, Row{
			Label:  string(cpu),
			Values: []float64{top1, top10, top50, float64(r.CalledFuncs), float64(r.NumFuncs)},
		})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: hottest %.1f%% (paper %.1f%%), functions called %d of %d in this scaled-down run (paper: %d called over a full-length simulation)",
			cpu, top1, paperHottest[cpu], r.CalledFuncs, r.NumFuncs, paperCalled[cpu]))
	}
	res.Notes = append(res.Notes,
		"paper: no killer function; the CDF flattens as CPU-model complexity grows")
	return res, nil
}
