package experiments

import (
	"fmt"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/uarch"
)

func init() {
	register("ablations", ablationDecl, runAblations)
}

var ablationDecl = full(ablationCells)

// ablationProbe is one row of the ablations: a host and a binary.
type ablationProbe struct {
	label string
	host  uarch.Config
	hc    hostmodel.Config
}

// ablationProbes are the baseline and the four design choices it is
// compared against.
func ablationProbes() []ablationProbe {
	noDSB := platform.IntelXeon() // A1: no uop cache.
	noDSB.DSBUops = 0
	bigL1 := platform.IntelXeon() // A2: VIPT constraint lifted.
	bigL1.L1I = uarch.CacheGeom{SizeBytes: 128 << 10, Ways: 8, LineBytes: 64}
	bigL1.SkipVIPTCheck = true
	noMLP := platform.IntelXeon() // A3: no memory-level parallelism overlap.
	noMLP.MLPOverlap = 0
	packed := hostmodel.DefaultConfig() // A4: densely packed function layout.
	packed.TextSlots = 2                // forces sequential overflow placement

	return []ablationProbe{
		{label: "baseline", host: platform.IntelXeon()},
		{label: "A1 no DSB", host: noDSB},
		{label: "A2 non-VIPT 128KB L1I", host: bigL1},
		{label: "A3 no MLP overlap", host: noMLP},
		{label: "A4 packed layout", host: platform.IntelXeon(), hc: packed},
	}
}

// ablationCells runs every probe on the O3/water_nsquared guest. All but A4
// share the binary, so they ride one co-simulation.
func ablationCells(opt Options) []core.SessionConfig {
	scale := 40
	if !opt.Quick {
		scale = parsecRepScale(opt)
	}
	probes := ablationProbes()
	scs := make([]core.SessionConfig, len(probes))
	for i, c := range probes {
		scs[i] = core.SessionConfig{
			Guest: core.GuestConfig{
				CPU: core.O3, Mode: core.SE,
				Workload: "water_nsquared", Scale: scale,
			},
			Host:     c.host,
			HostCode: c.hc,
		}
	}
	return scs
}

// runAblations quantifies the design choices DESIGN.md §5 calls out, using
// the O3/water_nsquared configuration on the Xeon as the probe, normalizing
// against the baseline.
func runAblations(_ Options, cells []*cellRun) (*Result, error) {
	times := secondsOf(cells)
	base := times[0]

	res := &Result{
		ID:    "ablations",
		Title: "Design-choice ablations (O3/water_nsquared on Intel_Xeon; ratio vs baseline time)",
		Cols:  []string{"time-ratio"},
	}
	for i, c := range ablationProbes() {
		res.Rows = append(res.Rows, Row{Label: c.label, Values: []float64{times[i] / base}})
	}

	res.Notes = append(res.Notes,
		"ratios > 1 mean slower than the baseline model",
		"A4's layout effect on *total* time is small once the hot path is cache-resident; its impact concentrates in iTLB stalls (compare fig11)",
		fmt.Sprintf("A2 shows what the VIPT page-size constraint costs the Xeon: %.2fx of baseline time with a 128KB L1I",
			res.Rows[2].Values[0]),
	)
	return res, nil
}
