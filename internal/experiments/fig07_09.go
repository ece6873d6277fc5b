package experiments

import (
	"fmt"

	"gem5prof/internal/core"
	"gem5prof/internal/platform"
	"gem5prof/internal/uarch"
)

func init() {
	register("fig07", platformDecl, runFig07)
	register("fig08", platformDecl, runFig08)
	register("fig09", fig09Decl, runFig09)
}

var fig09Decl = full(fig09Cells)

// platformDecl declares the platform set's sessions for the figures that
// read it.
var platformDecl = full(platformCells)

// platformCells runs water_nsquared for fig07CPUs on the three Table II
// platforms, platform-major.
func platformCells(opt Options) []core.SessionConfig {
	var cells []core.SessionConfig
	for _, host := range platform.TableIIPlatforms() {
		for _, cpu := range fig07CPUs {
			cells = append(cells, core.SessionConfig{
				Guest: core.GuestConfig{
					CPU: cpu, Mode: core.SE,
					Workload: "water_nsquared", Scale: parsecRepScale(opt),
				},
				Host: host,
			})
		}
	}
	return cells
}

// platformSet returns the reports of platformCells keyed [platform][cpu].
func platformSet(cells []*cellRun) map[string]map[core.CPUModel]uarch.Report {
	out := map[string]map[core.CPUModel]uarch.Report{}
	for i, r := range cells {
		host, cpu := platform.TableIIPlatforms()[i/len(fig07CPUs)].Name, fig07CPUs[i%len(fig07CPUs)]
		if out[host] == nil {
			out[host] = map[core.CPUModel]uarch.Report{}
		}
		out[host][cpu] = r.res.Host
	}
	return out
}

// fig07CPUs are the models the paper profiles on all three platforms.
var fig07CPUs = []core.CPUModel{core.Atomic, core.Timing, core.O3}

// runFig07 reproduces Fig. 7: IPC and stall percentage of gem5 on the three
// platforms.
func runFig07(_ Options, cells []*cellRun) (*Result, error) {
	set := platformSet(cells)
	res := &Result{
		ID:    "fig07",
		Title: "gem5 IPC (uops/cycle) and stalled-cycle share per platform (water_nsquared)",
		Cols:  []string{"Xeon-IPC", "M1Pro-IPC", "M1Ultra-IPC", "Xeon-stall%", "M1Pro-stall%", "M1Ultra-stall%"},
	}
	var ipcRatioPro, ipcRatioUltra []float64
	for _, cpu := range fig07CPUs {
		x := set["Intel_Xeon"][cpu]
		p := set["M1_Pro"][cpu]
		u := set["M1_Ultra"][cpu]
		res.Rows = append(res.Rows, Row{
			Label: string(cpu),
			Values: []float64{
				x.IPC, p.IPC, u.IPC,
				pct(x.StallFrac), pct(p.StallFrac), pct(u.StallFrac),
			},
		})
		ipcRatioPro = append(ipcRatioPro, p.IPC/x.IPC)
		ipcRatioUltra = append(ipcRatioUltra, u.IPC/x.IPC)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("M1_Pro / M1_Ultra IPC is %.2fx / %.2fx the Xeon's (paper: 2.22x / 2.24x)",
			geomean(ipcRatioPro), geomean(ipcRatioUltra)),
		"paper: Xeon stalled-time share is much higher than both M1 platforms")
	return res, nil
}

// runFig08 reproduces Fig. 8: TLB, L1 cache, and branch prediction
// performance across the platforms.
func runFig08(_ Options, cells []*cellRun) (*Result, error) {
	set := platformSet(cells)
	res := &Result{
		ID:    "fig08",
		Title: "TLB / L1 / branch predictor miss rates per platform (%)",
		Cols:  []string{"iTLB", "dTLB", "L1I", "L1D", "BP-mispredict"},
	}
	for _, host := range []string{"Intel_Xeon", "M1_Pro", "M1_Ultra"} {
		// Average over the CPU models, as the paper's bars do.
		var itlb, dtlb, l1i, l1d, bp []float64
		for _, cpu := range fig07CPUs {
			r := set[host][cpu]
			itlb = append(itlb, pct(r.ITLBMissRate))
			dtlb = append(dtlb, pct(r.DTLBMissRate))
			l1i = append(l1i, pct(r.ICacheMissRate))
			l1d = append(l1d, pct(r.DCacheMissRate))
			bp = append(bp, pct(r.BranchMispredictRate))
		}
		res.Rows = append(res.Rows, Row{
			Label:  host,
			Values: []float64{meanf(itlb), meanf(dtlb), meanf(l1i), meanf(l1d), meanf(bp)},
		})
	}
	x, u := res.Rows[0].Values, res.Rows[2].Values
	ratio := func(i int) float64 {
		if u[i] == 0 {
			return 0
		}
		return x[i] / u[i]
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("Xeon iTLB / dTLB miss rate is %.1fx / %.1fx the M1_Ultra's (paper: 11.7x / 10.5x)", ratio(0), ratio(1)),
		fmt.Sprintf("Xeon dCache miss rate is %.1fx the M1_Ultra's (paper: 10.1x..13.4x lower on M1)", ratio(3)),
		fmt.Sprintf("branch mispredict: Xeon %.3f%% vs M1 %.3f%% (paper: 0.22%% vs ~0.14%%)", x[4], u[4]),
	)
	return res, nil
}

// fig09Modes are the guest modes of Fig. 9, SE first.
var fig09Modes = []core.Mode{core.SE, core.FS}

// fig09Cells is every CPU model on the Xeon, in SE mode (water_nsquared)
// and then FS mode (boot-exit).
func fig09Cells(opt Options) []core.SessionConfig {
	var cells []core.SessionConfig
	for _, mode := range fig09Modes {
		for _, cpu := range core.AllCPUModels {
			gc := core.GuestConfig{CPU: cpu, Mode: mode}
			if mode == core.FS {
				gc.BootExit = true
				gc.BootKBs = 16
			} else {
				gc.Workload = "water_nsquared"
				gc.Scale = parsecRepScale(opt)
			}
			cells = append(cells, core.SessionConfig{Guest: gc, Host: platform.IntelXeon()})
		}
	}
	return cells
}

// runFig09 reproduces Fig. 9: LLC occupancy and DRAM bandwidth utilization
// of gem5 per CPU model and mode on the Xeon.
func runFig09(_ Options, cells []*cellRun) (*Result, error) {
	res := &Result{
		ID:    "fig09",
		Title: "LLC occupancy and DRAM bandwidth utilization on Intel_Xeon",
		Cols:  []string{"LLC-occupancy-KB", "DRAM-BW-util-%"},
	}
	nCPU := len(core.AllCPUModels)
	var occs []float64
	for i, r := range cells {
		rep, mode, cpu := r.res.Host, fig09Modes[i/nCPU], core.AllCPUModels[i%nCPU]
		occKB := float64(rep.LLCOccupancyBytes) / 1024
		occs = append(occs, occKB)
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("%s/%s", mode, cpu),
			Values: []float64{occKB, pct(rep.DRAMBandwidthUtil)},
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("LLC occupancy %.0f..%.0f KB (paper: 255KB..3.1MB, growing with CPU detail)", minf(occs), maxf(occs)),
		"paper: DRAM bandwidth utilization is negligible in both FS and SE modes",
	)
	return res, nil
}
