package uarch

// TopDown is the level-1/level-2 cycle accounting of the VTune Top-Down
// method: every modeled cycle lands in exactly one bucket.
type TopDown struct {
	RetiringCycles float64

	// Front-end bandwidth.
	FEBandwidthMITE float64
	FEBandwidthDSB  float64
	// Front-end latency.
	FELatICache            float64
	FELatITLB              float64
	FELatMispredictResteer float64
	FELatClearResteer      float64
	FELatUnknownBranch     float64

	BadSpecCycles float64

	BEMemCycles  float64
	BECoreCycles float64
}

// FEBandwidth returns the total front-end bandwidth-bound cycles.
func (t *TopDown) FEBandwidth() float64 { return t.FEBandwidthMITE + t.FEBandwidthDSB }

// FELatency returns the total front-end latency-bound cycles.
func (t *TopDown) FELatency() float64 {
	return t.FELatICache + t.FELatITLB + t.FELatMispredictResteer +
		t.FELatClearResteer + t.FELatUnknownBranch
}

// FrontEndBound returns all front-end-bound cycles.
func (t *TopDown) FrontEndBound() float64 { return t.FEBandwidth() + t.FELatency() }

// BackEndBound returns all back-end-bound cycles.
func (t *TopDown) BackEndBound() float64 { return t.BEMemCycles + t.BECoreCycles }

// Total returns all modeled cycles.
func (t *TopDown) Total() float64 {
	return t.RetiringCycles + t.FrontEndBound() + t.BadSpecCycles + t.BackEndBound()
}

// lane is one host of a machine: its config, the prices derived from it
// once, and the units whose outcomes it prices. A lane holds no count of its
// own, so two lanes on the same units differ only in what they charge.
type lane struct {
	cfg  Config
	unit [numKinds]*Unit

	// Cycles per outcome (DESIGN §6): an L1 miss of each row served at each
	// level; a first-level TLB miss the STLB serves (0) or that is walked
	// (1); a uop beyond the issue width's share, from the DSB and from MITE.
	miss      [missStore + 1][levelStream + 1]float64
	tlb       [2]float64
	dsb, mite float64
}

// newLane prices the outcomes of cfg's units.
func newLane(cfg *Config) lane {
	l := lane{
		cfg:  *cfg,
		tlb:  [2]float64{cfg.STLBCycles, cfg.STLBCycles + cfg.WalkCycles},
		mite: max(0, 1/cfg.DecodeWidth-1/cfg.IssueWidth),
	}
	if cfg.DSBUops > 0 {
		// A host without a uop cache supplies no uop from it; its slack
		// would be 1/0.
		l.dsb = max(0, 1/cfg.DSBWidth-1/cfg.IssueWidth)
	}
	// A line the stream prefetcher already issued pays only a residual
	// L2-ish latency. A fetch is never streamed.
	lat := [...]float64{cfg.L2Cycles, cfg.LLCCycles, cfg.DRAMNanos * cfg.FreqGHz, cfg.L2Cycles * 0.3}
	for lv, c := range lat {
		// MLP hides part of a data miss. A store retires before its miss
		// completes, so only buffer pressure shows; a streamed store costs
		// a load's.
		load, store := 1-cfg.MLPOverlap, 1-cfg.MLPOverlap
		if lv != levelStream {
			store *= 0.4
		}
		l.miss[missFetch][lv], l.miss[missLoad][lv], l.miss[missStore][lv] = c, c*load, c*store
	}
	return l
}

// Price is the Report of a host of cfg whose units counted c: a pure
// function, which prices c as a lane of cfg would. Machine.Report is Price
// of lane 0's config and counts, and a sweep's lane has its solo session's
// report because it has its counts.
func Price(cfg *Config, c *Counts) Report {
	l := newLane(cfg)
	var td TopDown
	l.account(&td, &c.DSB, &c.LLC, &c.Branch, &c.ITLB, &c.DTLB)
	uops := c.DSB.UopsDSB + c.DSB.UopsMITE
	total := td.Total()
	r := Report{
		Machine:              cfg.Name,
		TopDown:              td,
		Cycles:               total,
		TimeSeconds:          total / (cfg.FreqGHz * 1e9),
		Uops:                 uops,
		ICacheMissRate:       rate(c.L1I.Misses, c.L1I.Accesses),
		DCacheMissRate:       rate(c.L1D.Misses, c.L1D.Accesses),
		ITLBMissRate:         rate(c.ITLB.Misses, c.ITLB.Accesses),
		DTLBMissRate:         rate(c.DTLB.Misses, c.DTLB.Accesses),
		L2MissRate:           rate(c.L2.Misses, c.L2.Accesses),
		BranchMispredictRate: rate(c.Branch.Mispredicts, c.Branch.Lookups),
		DSBCoverage:          rate(c.DSB.UopsDSB, uops),
		LLCOccupancyBytes:    c.OccupancyBytes,
		DRAMBytes:            c.LLC.DRAMBytes,
	}
	if r.TimeSeconds > 0 && cfg.PeakDRAMBytesPerSec > 0 {
		r.DRAMBandwidthUtil = float64(c.LLC.DRAMBytes) / r.TimeSeconds / cfg.PeakDRAMBytesPerSec
	}
	// An empty account is no cycles, not a stalled one.
	if total == 0 {
		return r
	}
	r.IPC = float64(uops) / total
	r.StallFrac = 1 - td.RetiringCycles/total
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

// account prices counts into td: every field of the lane's Top-Down account
// is a sum of outcome counts times the lane's prices (DESIGN §6). It is the
// one pricing: Cycles passes the counts of the lane's live units, Price those
// of a snapshot. It fills td rather than returning one, which the profiler's
// two reads per modeled call would pay a copy for.
func (l *lane) account(td *TopDown, dsb *DSBCounts, llc *LLCCounts, bp *BranchCounts, itlb, dtlb *TLBCounts) {
	c := &l.cfg
	uops := dsb.UopsDSB + dsb.UopsMITE
	mispredicts := bp.Mispredicts - bp.IndirectClears // conditional ones
	td.RetiringCycles = float64(int64(uops)) / c.IssueWidth
	// A switch between the DSB and MITE costs a cycle.
	td.FEBandwidthMITE = times(dsb.UopsMITE, l.mite) + float64(int64(dsb.ToMITE))
	td.FEBandwidthDSB = times(dsb.UopsDSB, l.dsb) + float64(int64(dsb.ToDSB))
	td.FELatICache = misses(&llc.Misses[missFetch], &l.miss[missFetch])
	td.FELatITLB = times(itlb.Misses-itlb.Walks, l.tlb[0]) + times(itlb.Walks, l.tlb[1])
	// A mispredict wastes back-end slots and resteers the front end to
	// refill the pipe, with a machine-clear share on top; an unknown
	// indirect target stalls the front end until the branch unit resolves
	// it, with no wrong-path execution.
	td.FELatMispredictResteer = times(mispredicts, c.ResteerCycles)
	td.FELatClearResteer = times(mispredicts, 0.2*c.ResteerCycles)
	td.FELatUnknownBranch = times(bp.IndirectClears, c.BAClearCycles)
	td.BadSpecCycles = times(mispredicts, c.MispredictCycles)
	td.BEMemCycles = times(dtlb.Misses-dtlb.Walks, l.tlb[0]) + times(dtlb.Walks, l.tlb[1]) +
		misses(&llc.Misses[missLoad], &l.miss[missLoad]) + misses(&llc.Misses[missStore], &l.miss[missStore])
	// Execution-port contention: a small per-uop core-bound tax.
	td.BECoreCycles = times(uops, 0.005)
}

// times is n outcomes at price p. A count stays far below 2^63, so it
// converts as an int64, in one instruction. The outer conversion rounds the
// product before any sum it joins, which the Go spec says forbids fusing
// the two, so the account has the same bits on every architecture (CI
// checks arm64's).
func times(n uint64, p float64) float64 { return float64(float64(int64(n)) * p) }

// misses prices a row of an LLC unit's L1 miss counts n at a lane's prices p.
func misses(n *[levelStream + 1]uint64, p *[levelStream + 1]float64) float64 {
	return times(n[levelL2], p[levelL2]) + times(n[levelLLC], p[levelLLC]) +
		times(n[levelDRAM], p[levelDRAM]) + times(n[levelStream], p[levelStream])
}

// rate is n of d, or 0 of none.
func rate(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
