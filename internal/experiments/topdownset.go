package experiments

import (
	"fmt"
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

// runTopdownSet measures every Fig. 2-6 configuration once per process and
// caches the reports. The eleven configurations are independent sessions, so
// they fan out on the options' worker pool; reports are collected in
// configuration order, which keeps the cached set identical to the
// sequential measurement.
func runTopdownSet(opt Options) (*tdSet, error) {
	tdMu.Lock()
	defer tdMu.Unlock()
	if s, ok := tdCache[opt.Quick]; ok {
		return s, nil
	}
	specBlocks := 600_000
	bootKBs := 24
	if opt.Quick {
		specBlocks = 150_000
		bootKBs = 8
	}
	cfgs := topdownConfigs()
	reports, err := runAll(opt.runner, len(cfgs), func(i int) (uarch.Report, error) {
		cfg := cfgs[i]
		if cfg.IsSpec {
			p, err := spec.ByName(cfg.SpecName)
			if err != nil {
				return uarch.Report{}, err
			}
			var rep uarch.Report
			err = core.OnMachine(platform.IntelXeon(), func(m *uarch.Machine) { rep = p.Run(m, specBlocks) })
			return rep, err
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
		res, err := core.RunSession(core.SessionConfig{Guest: gc, Host: platform.IntelXeon()})
		if err != nil {
			return uarch.Report{}, fmt.Errorf("topdown set %s: %w", cfg.Label, err)
		}
		return res.Host, nil
	})
	if err != nil {
		return nil, err
	}
	set := &tdSet{reports: reports}
	for _, cfg := range cfgs {
		set.labels = append(set.labels, cfg.Label)
	}
	tdCache[opt.Quick] = set
	return set, nil
}
