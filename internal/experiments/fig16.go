package experiments

import (
	"fmt"

	"gem5prof/internal/core"
)

func init() {
	register("fig16", nil, runFig16)
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

// runFig16 extends the paper's evaluation to the multicore guest: simulated
// speedup of the mt kernels on the Timing model as the SE guest grows from
// 1 to N cores with MESI directory coherence at the shared L2. The directory
// transition counts land in the notes so coherence traffic is visible next
// to the speedup it buys.
func runFig16(opt Options, _ []*cellRun) (*Result, error) {
	counts := fig16CoreCounts(opt)
	scale := 16384
	if opt.Quick {
		scale = 2048
	}
	res := &Result{
		ID:    "fig16",
		Title: "Multicore guest scaling, Timing model with directory coherence (1-core ticks = 1.0)",
	}
	for _, c := range counts {
		res.Cols = append(res.Cols, fmt.Sprintf("%d-core", c))
	}
	type cell struct {
		ticks  float64
		invals float64
		getS   float64
		getM   float64
	}
	nc := len(counts)
	cells, err := runAll(opt.runner, len(fig16Workloads)*nc, func(i int) (cell, error) {
		wl, cores := fig16Workloads[i/nc], counts[i%nc]
		r, err := core.RunGuest(core.GuestConfig{
			CPU: core.Timing, Mode: core.SE, Workload: wl, Scale: scale,
			Cores: cores,
		})
		if err != nil {
			return cell{}, fmt.Errorf("fig16 %s cores=%d: %w", wl, cores, err)
		}
		if !r.ChecksumOK {
			return cell{}, fmt.Errorf("fig16 %s cores=%d: checksum mismatch (got %#x want %#x)",
				wl, cores, r.ExitCode, r.Expected)
		}
		out := cell{ticks: float64(r.SimTicks)}
		if cores > 1 {
			// A 1-core guest builds the exact pre-multicore machine:
			// no directory, so no sys.dir.* stats to read.
			out.invals = r.Stats.Get("sys.dir.invals")
			out.getS = r.Stats.Get("sys.dir.getS")
			out.getM = r.Stats.Get("sys.dir.getM")
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for wi, wl := range fig16Workloads {
		base := cells[wi*nc].ticks
		row := Row{Label: wl}
		for ci := range counts {
			row.Values = append(row.Values, base/cells[wi*nc+ci].ticks)
		}
		res.Rows = append(res.Rows, row)
		top := cells[wi*nc+nc-1]
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s at %d cores: %.2fx, directory getS/getM/invals = %.0f/%.0f/%.0f",
			wl, counts[nc-1], row.Values[nc-1], top.getS, top.getM, top.invals))
	}
	res.Notes = append(res.Notes,
		"scaling is sublinear: the serial generate/join phases and coherence misses on shared blocks bound it (the guest-side mirror of the paper's host-side contention findings)")
	return res, nil
}
