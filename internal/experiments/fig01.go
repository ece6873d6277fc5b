package experiments

import (
	"fmt"

	"gem5prof/internal/core"
	"gem5prof/internal/platform"
)

func init() {
	register("fig01", fig01Decl, runFig01)
}

var fig01Decl = full(fig01Cells)

// fig01Scale returns the per-workload problem size for the Fig. 1 sweep
// (scaled-down simmedium).
func fig01Scale(name string) int {
	full := map[string]int{
		"blackscholes":   128,
		"canneal":        128,
		"dedup":          1024,
		"streamcluster":  64,
		"water_nsquared": 32,
		"water_spatial":  48,
		"ocean_cp":       16,
		"ocean_ncp":      16,
		"fmm":            64,
	}
	s := full[name]
	if s == 0 {
		s = 64
	}
	return s
}

// fig01Workloads returns the workload list: all nine PARSEC/SPLASH-2x
// programs, or a three-benchmark subset in quick mode.
func fig01Workloads(quick bool) []string {
	if quick {
		return []string{"canneal", "dedup", "water_nsquared"}
	}
	return []string{
		"blackscholes", "canneal", "dedup", "streamcluster",
		"water_nsquared", "water_spatial", "ocean_cp", "ocean_ncp", "fmm",
	}
}

type fig01Config struct {
	label string
	mode  core.Mode
	cpu   core.CPUModel
}

func fig01Configs(quick bool) []fig01Config {
	if quick {
		return []fig01Config{
			{"SE/atomic", core.SE, core.Atomic},
			{"SE/o3", core.SE, core.O3},
		}
	}
	var out []fig01Config
	for _, cpu := range core.AllCPUModels {
		out = append(out, fig01Config{"SE/" + string(cpu), core.SE, cpu})
	}
	for _, cpu := range []core.CPUModel{core.Atomic, core.O3} {
		out = append(out, fig01Config{"FS/" + string(cpu), core.FS, cpu})
	}
	return out
}

// fig01Scenario is one sub-graph of Fig. 1.
type fig01Scenario struct {
	label string
	// procs returns the co-running process count per platform name, and
	// whether Xeon runs with SMT.
	procs map[string]platform.Scenario
}

func fig01Scenarios() []fig01Scenario {
	return []fig01Scenario{
		{"single gem5 process", map[string]platform.Scenario{
			"Intel_Xeon": {Procs: 1}, "M1_Pro": {Procs: 1}, "M1_Ultra": {Procs: 1},
		}},
		{"procs = physical cores (SMT off)", map[string]platform.Scenario{
			"Intel_Xeon": {Procs: platform.XeonPhysicalCores},
			"M1_Pro":     {Procs: platform.M1ProPerfCores},
			"M1_Ultra":   {Procs: platform.M1UltraPerfCores},
		}},
		{"procs = hardware threads (SMT on)", map[string]platform.Scenario{
			"Intel_Xeon": {Procs: platform.XeonHardwareThreads, SMT: true},
			"M1_Pro":     {Procs: platform.M1ProPerfCores},
			"M1_Ultra":   {Procs: platform.M1UltraPerfCores},
		}},
	}
}

// fig01Cells is the Fig. 1 sweep in its sequential order: scenario, then
// config, then workload, then Table II platform.
func fig01Cells(opt Options) []core.SessionConfig {
	var cells []core.SessionConfig
	for _, sc := range fig01Scenarios() {
		for _, cfg := range fig01Configs(opt.Quick) {
			for _, wl := range fig01Workloads(opt.Quick) {
				gc := core.GuestConfig{CPU: cfg.cpu, Mode: cfg.mode, Workload: wl,
					Scale: fig01Scale(wl)}
				if cfg.mode == core.FS {
					gc.BootKBs = 8
				}
				for _, host := range platform.TableIIPlatforms() {
					cells = append(cells, core.SessionConfig{
						Guest: gc, Host: host, Scenario: sc.procs[host.Name]})
				}
			}
		}
	}
	return cells
}

// runFig01 reproduces Fig. 1: simulation time of M1_Pro and M1_Ultra
// normalized to Intel_Xeon across co-running scenarios, geomean over the
// PARSEC/SPLASH-2x workloads, plus the SMT on/off comparison. The geomeans
// are folded over the collected times in cell order, so the result is
// identical at any worker count.
func runFig01(opt Options, cells []*cellRun) (*Result, error) {
	res := &Result{
		ID:    "fig01",
		Title: "Simulation time normalized to Intel_Xeon (geomean; >1 means faster than Xeon)",
		Cols:  []string{"M1_Pro-speedup", "M1_Ultra-speedup"},
	}

	times := secondsOf(cells)
	var smtOn, smtOff []float64
	i := 0
	for _, sc := range fig01Scenarios() {
		for _, cfg := range fig01Configs(opt.Quick) {
			var proRatios, ultraRatios []float64
			for range fig01Workloads(opt.Quick) {
				xeon, pro, ultra := times[i], times[i+1], times[i+2]
				i += len(platform.TableIIPlatforms())
				proRatios = append(proRatios, xeon/pro)
				ultraRatios = append(ultraRatios, xeon/ultra)
				switch sc.label {
				case "procs = hardware threads (SMT on)":
					smtOn = append(smtOn, xeon)
				case "procs = physical cores (SMT off)":
					smtOff = append(smtOff, xeon)
				}
			}
			res.Rows = append(res.Rows, Row{
				Label:  sc.label + " | " + cfg.label,
				Values: []float64{geomean(proRatios), geomean(ultraRatios)},
			})
		}
	}

	best := 0.0
	for _, r := range res.Rows {
		if v := maxf(r.Values); v > best {
			best = v
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("max M1 advantage %.2fx (paper: 1.7x..3.02x single, up to 4.15x co-running)", best))
	if len(smtOn) == len(smtOff) && len(smtOn) > 0 {
		var ratios []float64
		for i := range smtOn {
			ratios = append(ratios, smtOn[i]/smtOff[i])
		}
		res.Notes = append(res.Notes,
			fmt.Sprintf("Xeon per-process time with SMT is %.0f%% higher than SMT-off (paper: ~47%% better with SMT disabled)",
				100*(geomean(ratios)-1)))
	}
	return res, nil
}
