package uarch

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

// account prices the lane's Top-Down account into td: every field is a sum
// of its units' outcome counts times the lane's prices (DESIGN §6). It is
// the one pricing of a lane; Cycles, LaneTimeSeconds and LaneReport all
// call it. It fills td rather than returning one, which the profiler's two
// reads per modeled call would pay a copy for.
func (l *lane) account(td *TopDown) {
	llc, dsb, bp, tr := l.unit[kindLLC], l.unit[kindDSB], &l.unit[kindBP].bp, &l.unit[kindXlat].tr
	c := &l.cfg
	uops := dsb.uopsDSB + dsb.uopsMITE
	mispredicts := bp.Mispredicts - bp.IndirectClears // conditional ones
	td.RetiringCycles = float64(int64(uops)) / c.IssueWidth
	// A switch between the DSB and MITE costs a cycle.
	td.FEBandwidthMITE = times(dsb.uopsMITE, l.mite) + float64(int64(dsb.toMITE))
	td.FEBandwidthDSB = times(dsb.uopsDSB, l.dsb) + float64(int64(dsb.toDSB))
	td.FELatICache = misses(&llc.misses[missFetch], &l.miss[missFetch])
	td.FELatITLB = times(tr.itlb.Misses-tr.fetchWalks, l.tlb[0]) + times(tr.fetchWalks, l.tlb[1])
	// A mispredict wastes back-end slots and resteers the front end to
	// refill the pipe, with a machine-clear share on top; an unknown
	// indirect target stalls the front end until the branch unit resolves
	// it, with no wrong-path execution.
	td.FELatMispredictResteer = times(mispredicts, c.ResteerCycles)
	td.FELatClearResteer = times(mispredicts, 0.2*c.ResteerCycles)
	td.FELatUnknownBranch = times(bp.IndirectClears, c.BAClearCycles)
	td.BadSpecCycles = times(mispredicts, c.MispredictCycles)
	td.BEMemCycles = times(tr.dtlb.Misses-tr.dataWalks, l.tlb[0]) + times(tr.dataWalks, l.tlb[1]) +
		misses(&llc.misses[missLoad], &l.miss[missLoad]) + misses(&llc.misses[missStore], &l.miss[missStore])
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
