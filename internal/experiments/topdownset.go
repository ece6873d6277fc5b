package experiments

import (
	"gem5prof/internal/core"
	"gem5prof/internal/platform"
)

// tdConfig is one bar of Figs. 2-6: a gem5 configuration or a SPEC
// benchmark profiled on the Xeon.
type tdConfig struct {
	Label    string
	CPU      core.CPUModel // gem5 configs only
	BootExit bool
	IsSpec   bool
	SpecName string
}

// topdownConfigs mirrors the paper's Fig. 2 bar order: gem5 {CPU}x
// {Boot-Exit, PARSEC representative} from most to least detailed, then the
// three SPEC benchmarks.
func topdownConfigs() []tdConfig {
	var out []tdConfig
	for _, cpu := range []core.CPUModel{core.O3, core.Minor, core.Timing, core.Atomic} {
		out = append(out,
			tdConfig{Label: cpuLabel(cpu) + "_BOOT_EXIT", CPU: cpu, BootExit: true},
			tdConfig{Label: cpuLabel(cpu) + "_PARSEC", CPU: cpu},
		)
	}
	for _, s := range []string{"525.x264_r", "531.deepsjeng_r", "505.mcf_r"} {
		out = append(out, tdConfig{Label: s, IsSpec: true, SpecName: s})
	}
	return out
}

func cpuLabel(cpu core.CPUModel) string {
	switch cpu {
	case core.Atomic:
		return "ATOMIC"
	case core.Timing:
		return "TIMING"
	case core.Minor:
		return "MINOR"
	case core.O3:
		return "O3"
	}
	return string(cpu)
}

// parsecRepScale returns the water_nsquared scale used as the PARSEC
// representative (footnote 2 of the paper).
func parsecRepScale(opt Options) int {
	if opt.Quick {
		return 40
	}
	return 72
}

// topdownDecl declares the Top-Down set for each of the figures that render
// it: the gem5 configurations' sessions, then the SPEC replays, which is
// configuration order.
var topdownDecl = &declaration{scs: topdownCells, replays: topdownReplays}

// topdownCells are the sessions of the gem5 configurations, in
// configuration order.
func topdownCells(opt Options) []core.SessionConfig {
	bootKBs := 24
	if opt.Quick {
		bootKBs = 8
	}
	cells := make([]core.SessionConfig, 0, 8)
	for _, cfg := range topdownConfigs() {
		if cfg.IsSpec {
			continue
		}
		gc := core.GuestConfig{CPU: cfg.CPU}
		if cfg.BootExit {
			gc.Mode = core.FS
			gc.BootExit = true
			gc.BootKBs = bootKBs
		} else {
			gc.Mode = core.SE
			gc.Workload = "water_nsquared"
			gc.Scale = parsecRepScale(opt)
		}
		cells = append(cells, core.SessionConfig{Guest: gc, Host: platform.IntelXeon()})
	}
	return cells
}

// topdownReplays are the SPEC benchmarks' replays on the Xeon, in
// configuration order.
func topdownReplays(opt Options) []replay {
	blocks := 600_000
	if opt.Quick {
		blocks = 150_000
	}
	var out []replay
	for _, cfg := range topdownConfigs() {
		if cfg.IsSpec {
			out = append(out, replay{host: platform.IntelXeon(), bench: cfg.SpecName, blocks: blocks})
		}
	}
	return out
}
