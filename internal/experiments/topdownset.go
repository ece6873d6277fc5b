package experiments

import (
	"sync"

	"gem5prof/internal/core"
	"gem5prof/internal/platform"
	"gem5prof/internal/spec"
	"gem5prof/internal/uarch"
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

// tdSet is the shared measurement backing Figs. 2-6.
type tdSet struct {
	labels  []string
	reports []uarch.Report
}

var (
	tdMu    sync.Mutex
	tdCache = map[bool]*tdSet{}
)

// parsecRepScale returns the water_nsquared scale used as the PARSEC
// representative (footnote 2 of the paper).
func parsecRepScale(opt Options) int {
	if opt.Quick {
		return 40
	}
	return 72
}

// topdownDecl declares the Top-Down set's sessions for each of the figures
// that read it.
var topdownDecl = full(topdownCells)

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

// runTopdownSet measures every Fig. 2-6 configuration once per process and
// caches the reports. The gem5 sessions go to the pool through the pass,
// and the SPEC replays after them; reports are collected in configuration
// order (the gem5 configurations come first), which keeps the cached set
// identical to the sequential measurement.
func runTopdownSet(opt Options) (*tdSet, error) {
	tdMu.Lock()
	defer tdMu.Unlock()
	if s, ok := tdCache[opt.Quick]; ok {
		return s, nil
	}
	specBlocks := 600_000
	if opt.Quick {
		specBlocks = 150_000
	}
	cfgs := topdownConfigs()
	var specs []tdConfig
	for _, cfg := range cfgs {
		if cfg.IsSpec {
			specs = append(specs, cfg)
		}
	}
	started := opt.pass.start(topdownDecl, opt)
	specReports, specErr := runAll(opt.runner, len(specs), func(i int) (uarch.Report, error) {
		p, err := spec.ByName(specs[i].SpecName)
		if err != nil {
			return uarch.Report{}, err
		}
		var rep uarch.Report
		err = core.OnMachine(platform.IntelXeon(), func(m *uarch.Machine) { rep = p.Run(m, specBlocks) })
		return rep, err
	})
	runs, err := results(opt.pass.wait(started))
	if err != nil {
		return nil, err
	}
	if specErr != nil {
		return nil, specErr
	}
	set := &tdSet{reports: make([]uarch.Report, 0, len(cfgs))}
	for _, r := range runs {
		set.reports = append(set.reports, r.Host)
	}
	set.reports = append(set.reports, specReports...)
	for _, cfg := range cfgs {
		set.labels = append(set.labels, cfg.Label)
	}
	tdCache[opt.Quick] = set
	return set, nil
}
