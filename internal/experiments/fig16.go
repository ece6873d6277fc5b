package experiments

import (
	"fmt"

	"gem5prof/internal/core"
)

func init() {
	register("fig16", &declaration{guests: fig16Guests}, runFig16)
}

// fig16Workloads are the mt-suite kernels: same checksum at every core
// count, so the scaling rows are verified runs, not just timings.
var fig16Workloads = []string{"dotprod_mt", "histogram_mt", "matmul_mt"}

// fig16CoreCounts returns the guest core counts the figure sweeps: powers
// of two from 1 up to Options.Cores (default 4). The 1-core column is the
// normalization baseline and runs the exact pre-multicore machine — no
// directory, no threading stats.
func fig16CoreCounts(opt Options) []int {
	max := opt.Cores
	if max <= 0 {
		max = 4
	}
	counts := []int{1}
	for c := 2; c <= max; c *= 2 {
		counts = append(counts, c)
	}
	return counts
}

// fig16Guests are the figure's cells, workload by workload, each at every
// core count in fig16CoreCounts' order.
func fig16Guests(opt Options) []bareGuest {
	scale := 16384
	if opt.Quick {
		scale = 2048
	}
	var out []bareGuest
	for _, wl := range fig16Workloads {
		for _, cores := range fig16CoreCounts(opt) {
			out = append(out, bareGuest{
				label: fmt.Sprintf("fig16 %s cores=%d", wl, cores),
				cfg: core.GuestConfig{
					CPU: core.Timing, Mode: core.SE, Workload: wl, Scale: scale,
					Cores: cores,
				},
			})
		}
	}
	return out
}

// runFig16 extends the paper's evaluation to the multicore guest: simulated
// speedup of the mt kernels on the Timing model as the SE guest grows from
// 1 to N cores with MESI directory coherence at the shared L2. The directory
// transition counts land in the notes so coherence traffic is visible next
// to the speedup it buys.
func runFig16(opt Options, cells []*cellRun) (*Result, error) {
	counts := fig16CoreCounts(opt)
	res := &Result{
		ID:    "fig16",
		Title: "Multicore guest scaling, Timing model with directory coherence (1-core ticks = 1.0)",
	}
	for _, c := range counts {
		res.Cols = append(res.Cols, fmt.Sprintf("%d-core", c))
	}
	nc := len(counts)
	for wi, wl := range fig16Workloads {
		base := float64(cells[wi*nc].guest.SimTicks)
		row := Row{Label: wl}
		for ci := range counts {
			row.Values = append(row.Values, base/float64(cells[wi*nc+ci].guest.SimTicks))
		}
		res.Rows = append(res.Rows, row)
		var getS, getM, invals float64
		if counts[nc-1] > 1 {
			// A 1-core guest builds the exact pre-multicore machine:
			// no directory, so no sys.dir.* stats to read.
			top := cells[wi*nc+nc-1].guest.Stats
			getS, getM, invals = top.Get("sys.dir.getS"), top.Get("sys.dir.getM"), top.Get("sys.dir.invals")
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s at %d cores: %.2fx, directory getS/getM/invals = %.0f/%.0f/%.0f",
			wl, counts[nc-1], row.Values[nc-1], getS, getM, invals))
	}
	res.Notes = append(res.Notes,
		"scaling is sublinear: the serial generate/join phases and coherence misses on shared blocks bound it (the guest-side mirror of the paper's host-side contention findings)")
	return res, nil
}
