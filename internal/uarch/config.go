package uarch

import "fmt"

// HugePageMode selects how the host backs the simulator's code segment,
// reproducing the paper's Sec. V-A system tuning.
type HugePageMode int

// Huge-page modes for the text segment.
const (
	// PagesBase backs code with the platform's base page size.
	PagesBase HugePageMode = iota
	// PagesTHP backs the hottest part of the code with transparent 2MB
	// pages (Intel iodlr-style remapping of a subset of the text).
	PagesTHP
	// PagesEHP backs the whole binary with explicit huge pages
	// (libhugetlbfs-style, with a sub-optimal layout).
	PagesEHP
)

func (m HugePageMode) String() string {
	switch m {
	case PagesBase:
		return "base"
	case PagesTHP:
		return "thp"
	case PagesEHP:
		return "ehp"
	}
	return fmt.Sprintf("HugePageMode(%d)", int(m))
}

// Config describes one host machine (one column of the paper's Table II, or
// one FireSim configuration from Table I / Fig. 14).
type Config struct {
	Name string
	// FreqGHz is the core clock. Time = cycles / (FreqGHz * 1e9).
	FreqGHz float64
	// PageBytes is the base virtual-memory page size (4KB Xeon, 16KB M1).
	PageBytes uint64
	// HugePages selects text-segment backing; HugePageBytes is the huge
	// page size (2MB); THPCoverage is the fraction of text remapped by THP.
	HugePages     HugePageMode
	HugePageBytes uint64
	THPCoverage   float64

	// Cache hierarchy. L1 caches are VIPT-constrained (validated).
	L1I, L1D CacheGeom
	L2, LLC  CacheGeom
	// Latencies in cycles (L2/LLC) and nanoseconds (DRAM).
	L2Cycles  float64
	LLCCycles float64
	DRAMNanos float64
	// PeakDRAMBytesPerSec for bandwidth-utilization reporting.
	PeakDRAMBytesPerSec float64

	// TLBs.
	ITLBEntries, DTLBEntries, STLBEntries int
	STLBCycles                            float64
	WalkCycles                            float64

	// Front end.
	IssueWidth  float64 // rename/retire slots per cycle
	DecodeWidth float64 // legacy decoder (MITE) uops per cycle
	DSBUops     int     // uop cache capacity (0 = none, e.g. M1)
	DSBWidth    float64 // uop-cache delivery rate
	// Branch handling.
	BPTableEntries, BTBEntries int
	MispredictCycles           float64 // total flush cost
	ResteerCycles              float64 // front-end refill share of a flush
	BAClearCycles              float64 // unknown-target (indirect) resteer

	// Back end.
	MLPOverlap    float64 // fraction of data-miss latency hidden by MLP/OoO
	SkipVIPTCheck bool    // ablation A2: allow non-VIPT L1 geometries
}

// Validate checks everything NewMachine would panic on and the model's own
// consistency: the geometry of every cache level, TLB and predictor sizes,
// and the VIPT constraint the paper leans on, that one L1 way must not
// exceed the page size. The uop cache needs no check: NewMachine derives a
// valid geometry from any capacity.
func (c *Config) Validate() error {
	if c.FreqGHz <= 0 || c.PageBytes == 0 {
		return fmt.Errorf("uarch: %s: frequency and page size required", c.Name)
	}
	type level struct {
		name string
		g    CacheGeom
	}
	all := [...]level{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}, {"LLC", c.LLC}}
	levels := all[:3]
	if c.LLC.SizeBytes > 0 {
		levels = all[:]
	}
	for _, l := range levels {
		if msg := l.g.check(); msg != "" {
			return fmt.Errorf("uarch: %s: %s: %s", c.Name, l.name, msg)
		}
	}
	if !c.SkipVIPTCheck {
		for _, l1 := range levels[:2] {
			wayBytes := l1.g.SizeBytes / uint64(l1.g.Ways)
			if wayBytes > c.PageBytes {
				return fmt.Errorf("uarch: %s: %s way (%d B) exceeds page size (%d B): VIPT constraint violated",
					c.Name, l1.name, wayBytes, c.PageBytes)
			}
		}
	}
	if c.ITLBEntries < 1 || c.DTLBEntries < 1 || c.STLBEntries < 1 {
		return fmt.Errorf("uarch: %s: every TLB needs at least one entry (iTLB %d, dTLB %d, STLB %d)",
			c.Name, c.ITLBEntries, c.DTLBEntries, c.STLBEntries)
	}
	for _, n := range []int{c.BPTableEntries, c.BTBEntries} {
		if n < 1 || n&(n-1) != 0 {
			return fmt.Errorf("uarch: %s: predictor sizes must be powers of two (table %d, BTB %d)",
				c.Name, c.BPTableEntries, c.BTBEntries)
		}
	}
	if c.IssueWidth <= 0 || c.DecodeWidth <= 0 {
		return fmt.Errorf("uarch: %s: widths required", c.Name)
	}
	if c.MLPOverlap < 0 || c.MLPOverlap >= 1 {
		return fmt.Errorf("uarch: %s: MLPOverlap must be in [0,1)", c.Name)
	}
	return nil
}
