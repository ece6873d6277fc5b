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

// Counts are what one host's units have counted: the measurement, of which
// a Report is the price (Price). Every field is an integer, so two Counts
// are one measurement exactly when they are ==.
type Counts struct {
	L1I, L1D, L2 CacheCounts
	ITLB, DTLB   TLBCounts
	LLC          LLCCounts
	DSB          DSBCounts
	Branch       BranchCounts
	// OccupancyBytes are the bytes resident in the LLC, or in the L2 of a
	// host without one.
	OccupancyBytes uint64
}

// CacheCounts are a cache's lookups and the misses among them.
type CacheCounts struct{ Accesses, Misses uint64 }

// TLBCounts are a first-level TLB's lookups, the misses among them, and the
// misses the STLB missed too, whose page was walked.
type TLBCounts struct{ Accesses, Misses, Walks uint64 }

// LLCCounts are the bytes DRAM supplied, and the L1 misses above the LLC by
// row (fetch, load, store) and by what served them (the L2, the LLC, DRAM,
// or the stream prefetcher, for a data miss it had issued).
type LLCCounts struct {
	DRAMBytes uint64
	Misses    [missStore + 1][levelStream + 1]uint64
}

// DSBCounts are the uops the DSB and the legacy decoders (MITE) supplied,
// and the switches into each.
type DSBCounts struct{ UopsDSB, UopsMITE, ToDSB, ToMITE uint64 }

// BranchCounts are the predictor's lookups, its mispredicts, and the unknown
// indirect targets (BAClears) among them.
type BranchCounts struct{ Lookups, Mispredicts, IndirectClears uint64 }

// Report is the price of one host's Counts: its cycle accounting, rates and
// traffic. One Report backs every per-configuration bar in the paper's
// figures.
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
