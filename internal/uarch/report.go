package uarch

import (
	"fmt"
	"strings"
)

// Breakdown is a normalized Top-Down view (fractions of total cycles).
type Breakdown struct {
	Retiring       float64
	FrontEndBound  float64
	BadSpeculation float64
	BackEndBound   float64

	// Front-end split (fractions of total cycles).
	FELatency   float64
	FEBandwidth float64

	// Front-end latency components.
	ICacheMisses      float64
	ITLBMisses        float64
	MispredictResteer float64
	ClearResteer      float64
	UnknownBranches   float64

	// Front-end bandwidth components.
	MITE float64
	DSB  float64
}

// Report is a snapshot of one machine's counters and cycle accounting; one
// Report backs every per-configuration bar in the paper's figures.
type Report struct {
	Machine string
	TopDown TopDown
	Level1  Breakdown

	Cycles      float64
	TimeSeconds float64
	Uops        uint64
	IPC         float64
	StallFrac   float64

	ICacheMissRate float64
	DCacheMissRate float64
	ITLBMissRate   float64
	DTLBMissRate   float64
	L2MissRate     float64

	BranchMispredictRate float64
	DSBCoverage          float64

	LLCOccupancyBytes uint64
	DRAMBytes         uint64
	DRAMBandwidthUtil float64
}

// Report captures the current state of the machine's first lane.
func (m *Machine) Report() Report { return m.LaneReport(0) }

// LaneReport captures the current state of lane i: its host's account over
// the units it shares with the other lanes.
func (m *Machine) LaneReport(i int) Report {
	l := &m.lanes[i]
	td := &l.td
	total := td.Total()
	if total == 0 {
		total = 1
	}
	l2, llc, dsb, tr := &l.unit[kindL2].c, l.unit[kindLLC], l.unit[kindDSB], &l.unit[kindXlat].tr
	r := Report{
		Machine:        l.cfg.Name,
		TopDown:        *td,
		Cycles:         td.Total(),
		TimeSeconds:    m.LaneTimeSeconds(i),
		Uops:           m.uops,
		ICacheMissRate: l.unit[kindL1I].c.MissRate(),
		DCacheMissRate: l.unit[kindL1D].c.MissRate(),
		ITLBMissRate:   tr.itlb.MissRate(),
		DTLBMissRate:   tr.dtlb.MissRate(),
		L2MissRate:     l2.MissRate(),
		DRAMBytes:      llc.dramBytes,
	}
	if llc.hasC {
		r.LLCOccupancyBytes = llc.c.OccupancyBytes()
	} else {
		r.LLCOccupancyBytes = l2.OccupancyBytes()
	}
	r.BranchMispredictRate = l.unit[kindBP].bp.MispredictRate()
	r.IPC = float64(m.uops) / r.Cycles
	r.StallFrac = 1 - td.RetiringCycles/total
	if dsb.uopsDSB+dsb.uopsMITE > 0 {
		r.DSBCoverage = float64(dsb.uopsDSB) / float64(dsb.uopsDSB+dsb.uopsMITE)
	}
	if r.TimeSeconds > 0 && l.cfg.PeakDRAMBytesPerSec > 0 {
		r.DRAMBandwidthUtil = float64(llc.dramBytes) / r.TimeSeconds / l.cfg.PeakDRAMBytesPerSec
	}
	r.Level1 = Breakdown{
		Retiring:          td.RetiringCycles / total,
		FrontEndBound:     td.FrontEndBound() / total,
		BadSpeculation:    td.BadSpecCycles / total,
		BackEndBound:      td.BackEndBound() / total,
		FELatency:         td.FELatency() / total,
		FEBandwidth:       td.FEBandwidth() / total,
		ICacheMisses:      td.FELatICache / total,
		ITLBMisses:        td.FELatITLB / total,
		MispredictResteer: td.FELatMispredictResteer / total,
		ClearResteer:      td.FELatClearResteer / total,
		UnknownBranches:   td.FELatUnknownBranch / total,
		MITE:              td.FEBandwidthMITE / total,
		DSB:               td.FEBandwidthDSB / total,
	}
	return r
}

// String renders the report in a VTune-summary-like layout.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Machine)
	fmt.Fprintf(&b, "cycles %.0f  time %.6fs  uops %d  uops/cycle %.2f  stalled %.1f%%\n",
		r.Cycles, r.TimeSeconds, r.Uops, r.IPC, 100*r.StallFrac)
	fmt.Fprintf(&b, "Top-Down: retiring %.1f%%  front-end %.1f%%  bad-spec %.1f%%  back-end %.1f%%\n",
		100*r.Level1.Retiring, 100*r.Level1.FrontEndBound,
		100*r.Level1.BadSpeculation, 100*r.Level1.BackEndBound)
	fmt.Fprintf(&b, "  FE latency %.1f%% (iCache %.1f%%, iTLB %.1f%%, mispredict resteers %.1f%%, clear resteers %.1f%%, unknown branches %.1f%%)\n",
		100*r.Level1.FELatency, 100*r.Level1.ICacheMisses, 100*r.Level1.ITLBMisses,
		100*r.Level1.MispredictResteer, 100*r.Level1.ClearResteer, 100*r.Level1.UnknownBranches)
	fmt.Fprintf(&b, "  FE bandwidth %.1f%% (MITE %.1f%%, DSB %.1f%%), DSB coverage %.1f%%\n",
		100*r.Level1.FEBandwidth, 100*r.Level1.MITE, 100*r.Level1.DSB, 100*r.DSBCoverage)
	fmt.Fprintf(&b, "caches: L1I miss %.2f%%  L1D miss %.2f%%  iTLB miss %.2f%%  dTLB miss %.2f%%  BP mispredict %.3f%%\n",
		100*r.ICacheMissRate, 100*r.DCacheMissRate, 100*r.ITLBMissRate,
		100*r.DTLBMissRate, 100*r.BranchMispredictRate)
	fmt.Fprintf(&b, "LLC occupancy %.1f KB  DRAM traffic %.1f KB  DRAM BW util %.3f%%\n",
		float64(r.LLCOccupancyBytes)/1024, float64(r.DRAMBytes)/1024, 100*r.DRAMBandwidthUtil)
	return b.String()
}
