package experiments

import (
	"fmt"

	"gem5prof/internal/uarch"
)

func init() {
	register("table1", nil, runTable1)
	register("table2", nil, runTable2)
	register("fig02", topdownDecl, runFig02)
	register("fig03", topdownDecl, runFig03)
	register("fig04", topdownDecl, runFig04)
	register("fig05", topdownDecl, runFig05)
	register("fig06", topdownDecl, runFig06)
}

// topdownBars pairs each bar of Figs. 2-6 with its report, in bar order.
func topdownBars(cells []*cellRun) ([]string, []*uarch.Report) {
	cfgs := topdownConfigs()
	labels, reports := make([]string, len(cfgs)), make([]*uarch.Report, len(cfgs))
	for i, cfg := range cfgs {
		labels[i], reports[i] = cfg.Label, &cells[i].res.Host
	}
	return labels, reports
}

// runFig02 reproduces Fig. 2: Top-Down level-1 breakdown of gem5 (eight
// configurations) versus three SPEC CPU2017 benchmarks on the Xeon.
func runFig02(_ Options, cells []*cellRun) (*Result, error) {
	labels, reports := topdownBars(cells)
	res := &Result{
		ID:    "fig02",
		Title: "Top-Down level-1 cycle breakdown on Intel_Xeon (%)",
		Cols:  []string{"retiring", "front-end", "bad-spec", "back-end"},
	}
	var gem5Retiring, gem5FE, gem5BE []float64
	for i, rep := range reports {
		l1 := rep.Level1
		res.Rows = append(res.Rows, Row{
			Label:  labels[i],
			Values: []float64{pct(l1.Retiring), pct(l1.FrontEndBound), pct(l1.BadSpeculation), pct(l1.BackEndBound)},
		})
		if i < 8 { // gem5 configurations
			gem5Retiring = append(gem5Retiring, pct(l1.Retiring))
			gem5FE = append(gem5FE, pct(l1.FrontEndBound))
			gem5BE = append(gem5BE, pct(l1.BackEndBound))
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("gem5 retiring %.1f%%..%.1f%% (paper: 43.5%%..64.7%%)", minf(gem5Retiring), maxf(gem5Retiring)),
		fmt.Sprintf("gem5 front-end bound %.1f%%..%.1f%% (paper: 30.1%%..41.5%%, above hyperscale workloads)", minf(gem5FE), maxf(gem5FE)),
		fmt.Sprintf("gem5 back-end bound %.1f%%..%.1f%% (paper: 0.9%%..11.3%%; 505.mcf_r much higher)", minf(gem5BE), maxf(gem5BE)),
	)
	return res, nil
}

// runFig03 reproduces Fig. 3: the front-end bound split into latency vs
// bandwidth.
func runFig03(_ Options, cells []*cellRun) (*Result, error) {
	labels, reports := topdownBars(cells)
	res := &Result{
		ID:    "fig03",
		Title: "Front-end bound cycles: latency vs bandwidth on Intel_Xeon (%)",
		Cols:  []string{"fe-latency", "fe-bandwidth"},
	}
	for i, rep := range reports {
		res.Rows = append(res.Rows, Row{
			Label:  labels[i],
			Values: []float64{pct(rep.Level1.FELatency), pct(rep.Level1.FEBandwidth)},
		})
	}
	res.Notes = append(res.Notes,
		"paper: simple CPU models skew bandwidth-bound; detail shifts the front end latency-bound",
		"paper: gem5 is more front-end bandwidth-bound than SPEC",
	)
	return res, nil
}

// runFig04 reproduces Fig. 4: the front-end latency breakdown.
func runFig04(_ Options, cells []*cellRun) (*Result, error) {
	labels, reports := topdownBars(cells)
	res := &Result{
		ID:    "fig04",
		Title: "Front-end latency-bound cycle breakdown on Intel_Xeon (%)",
		Cols:  []string{"icache", "itlb", "mispred-resteer", "clear-resteer", "unknown-branch"},
	}
	idx := map[string]int{}
	for i, rep := range reports {
		l1 := rep.Level1
		idx[labels[i]] = i
		res.Rows = append(res.Rows, Row{
			Label: labels[i],
			Values: []float64{
				pct(l1.ICacheMisses), pct(l1.ITLBMisses),
				pct(l1.MispredictResteer), pct(l1.ClearResteer), pct(l1.UnknownBranches),
			},
		})
	}
	branching := func(label string) float64 {
		l1 := reports[idx[label]].Level1
		return pct(l1.MispredictResteer + l1.ClearResteer + l1.UnknownBranches)
	}
	icache := func(label string) float64 {
		return pct(reports[idx[label]].Level1.ICacheMisses)
	}
	missRate := func(label string) float64 {
		return reports[idx[label]].ICacheMissRate
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("O3/Minor vs Atomic PARSEC iCache stall-share ratio: %.1fx / %.1fx; L1I miss-rate ratio %.1fx / %.1fx (paper: up to 11x higher iCache misses)",
			icache("O3_PARSEC")/icache("ATOMIC_PARSEC"), icache("MINOR_PARSEC")/icache("ATOMIC_PARSEC"),
			missRate("O3_PARSEC")/missRate("ATOMIC_PARSEC"), missRate("MINOR_PARSEC")/missRate("ATOMIC_PARSEC")),
		fmt.Sprintf("aggregated branching overhead O3/Minor vs Atomic: %.1fx / %.1fx (paper: 6.0x / 4.7x)",
			branching("O3_PARSEC")/branching("ATOMIC_PARSEC"), branching("MINOR_PARSEC")/branching("ATOMIC_PARSEC")),
		"paper: iTLB stalls are high across all gem5 executions; SPEC is neither iCache nor iTLB bound",
	)
	return res, nil
}

// runFig05 reproduces Fig. 5: the front-end bandwidth breakdown (MITE vs
// DSB).
func runFig05(_ Options, cells []*cellRun) (*Result, error) {
	labels, reports := topdownBars(cells)
	res := &Result{
		ID:    "fig05",
		Title: "Front-end bandwidth-bound cycle breakdown on Intel_Xeon (%)",
		Cols:  []string{"MITE", "DSB", "MITE-share-of-bw"},
	}
	var gem5MITEShare []float64
	for i, rep := range reports {
		l1 := rep.Level1
		share := 0.0
		if l1.FEBandwidth > 0 {
			share = l1.MITE / l1.FEBandwidth
		}
		res.Rows = append(res.Rows, Row{
			Label:  labels[i],
			Values: []float64{pct(l1.MITE), pct(l1.DSB), pct(share)},
		})
		if i < 8 {
			gem5MITEShare = append(gem5MITEShare, pct(share))
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("gem5 MITE share of bandwidth-bound cycles %.0f%%..%.0f%% (paper: 92%%..97%%)",
			minf(gem5MITEShare), maxf(gem5MITEShare)),
	)
	return res, nil
}

// runFig06 reproduces Fig. 6: DSB (uop cache) coverage of gem5 vs SPEC.
func runFig06(_ Options, cells []*cellRun) (*Result, error) {
	labels, reports := topdownBars(cells)
	res := &Result{
		ID:    "fig06",
		Title: "DSB (uop cache) coverage on Intel_Xeon (%)",
		Cols:  []string{"dsb-coverage"},
	}
	var gem5, specv []float64
	for i, rep := range reports {
		res.Rows = append(res.Rows, Row{Label: labels[i], Values: []float64{pct(rep.DSBCoverage)}})
		if i < 8 {
			gem5 = append(gem5, pct(rep.DSBCoverage))
		} else {
			specv = append(specv, pct(rep.DSBCoverage))
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("gem5 coverage mean %.0f%% vs SPEC mean %.0f%% (paper: gem5 far below SPEC regardless of CPU type)",
			meanf(gem5), meanf(specv)),
	)
	return res, nil
}

func minf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func meanf(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
