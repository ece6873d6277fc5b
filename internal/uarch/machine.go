package uarch

import (
	"fmt"
	"math/bits"
	"sort"
)

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

// pageRegion maps an address range to a page size.
type pageRegion struct {
	base, end uint64
	pageBytes uint64
}

// pageMemo is a pageRegion as one lookup tests it: addr is in the region
// when addr-base < span (a zero span holds nothing), and its page base is
// addr &^ mask.
type pageMemo struct {
	base, span, mask uint64
}

// Where a line that missed the L1 was found. A lane prices each level with
// its own latencies; levelStream is a data miss the stream prefetcher had
// already issued.
const (
	levelL2 = iota
	levelLLC
	levelDRAM
	levelStream
)

// Machine is one modeled host machine consuming the hostmodel micro-event
// stream. It implements hostmodel.Sink.
//
// A machine models one or more hosts of equal Sizes at once, as lanes. What
// the caches, the uop cache and the predictor do depends on the stream and
// the Sizes alone, so they run once per record for every lane; everything a
// Config's scalars reach — the clock, latencies, widths, MLP, page sizes and
// huge-page backing, hence the address map, the TLBs and the Top-Down
// account — is per lane. Each lane sees, in order, the additions its host
// would see alone, so its Report is bit for bit a one-host machine's
// (DESIGN §21). Lane 0 is the machine's own host: Config, Report,
// TimeSeconds and Cycles read it.
type Machine struct {
	lanes []lane

	l1i, l1d, l2, llc *cache
	dsb               *cache
	bp                *gshare

	uops       uint64
	uopsDSB    uint64
	uopsMITE   uint64
	lastWasDSB bool

	dataReads  uint64
	dataWrites uint64
	dramBytes  uint64
	branches   uint64

	// streams are hardware stream-prefetcher trackers: ascending sequences
	// of line addresses whose misses are hidden.
	streams    [16]uint64
	streamNext int
	prefetched uint64
}

// lane is one host of a machine: its config, what is derived from its
// scalars, its address map and TLBs, and its cycle account. The fields the
// record methods touch come first.
type lane struct {
	td TopDown

	// lat prices a miss by the level that served it, in cycles.
	lat [levelStream + 1]float64
	// The two divisions FetchBlock would otherwise redo per block, done
	// once: the same expressions on the same operands, so bit-identical.
	dsbSlack  float64 // 1/DSBWidth - 1/IssueWidth
	miteSlack float64 // 1/DecodeWidth - 1/IssueWidth

	itlb, dtlb, stlb *tlb

	// last is the region the previous lookup was answered from, empty
	// before the first and once regions overlap. regions holds page regions
	// in insertion order (the documented first-match-wins contract); sorted
	// holds the same regions ordered by base for the O(log n) lookup, valid
	// only while they stay disjoint.
	last       pageMemo
	sorted     []pageRegion
	overlapped bool
	regions    []pageRegion

	cfg Config
}

// NewMachine builds a host machine model from a validated config.
func NewMachine(cfg Config) *Machine { return NewLanes(cfg) }

// NewLanes builds one machine for several hosts, one lane each, in order.
// Every config must validate and all must have the first's Sizes; NewLanes
// panics otherwise, as NewMachine does on a config that does not validate.
func NewLanes(cfgs ...Config) *Machine {
	checkLanes(cfgs, nil)
	cfg := cfgs[0]
	m := &Machine{
		l1i: newCache(cfg.L1I, false),
		l1d: newCache(cfg.L1D, false),
		l2:  newCache(cfg.L2, true),
		bp:  newGshare(cfg.BPTableEntries, cfg.BTBEntries),
	}
	if cfg.LLC.SizeBytes > 0 {
		// Two-level hosts (the FireSim Rocket) have no LLC.
		m.llc = newCache(cfg.LLC, true)
	}
	if cfg.DSBUops > 0 {
		// The DSB holds decoded uops for 32-byte code windows; its
		// effective reach in code bytes is about one byte per uop capacity
		// once per-window fragmentation is accounted for, so only loops of
		// roughly a kilobyte live entirely out of it. The set count is
		// rounded up to a power of two (1536 uops reach 2048 B).
		const ways, window = 8, 32
		sets := uint64(1)
		if n := uint64(cfg.DSBUops) / (ways * window); n > 1 {
			sets = 1 << uint(bits.Len64(n-1))
		}
		m.dsb = newCache(CacheGeom{SizeBytes: sets * ways * window, Ways: ways, LineBytes: window}, false)
	}
	m.arm(cfgs)
	return m
}

// checkLanes panics unless there is at least one config, every config
// validates, and all have the Sizes of sizes (when non-nil) or of the first.
func checkLanes(cfgs []Config, sizes *Sizes) {
	if len(cfgs) == 0 {
		panic("uarch: a machine needs at least one host")
	}
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			panic(err)
		}
	}
	if sizes == nil {
		s := cfgs[0].Sizes()
		sizes = &s
	}
	for i := range cfgs {
		if cfgs[i].Sizes() != *sizes {
			panic(fmt.Sprintf("uarch: %s does not have the structure sizes of the machine's other hosts", cfgs[i].Name))
		}
	}
}

// arm gives m one lane per config, each in its initial state. Lanes a
// larger run left behind past the end of the slice are reused with their
// TLBs and region slices; only lanes never built before are allocated.
func (m *Machine) arm(cfgs []Config) {
	all := m.lanes[:cap(m.lanes)]
	for len(all) < len(cfgs) {
		all = append(all, lane{})
	}
	m.lanes = all[:len(cfgs)]
	for i := range m.lanes {
		m.lanes[i].arm(cfgs[i])
	}
}

// arm puts l in its initial state for cfg, keeping the TLBs' and the
// region slices' memory when l ran before.
func (l *lane) arm(cfg Config) {
	if l.itlb == nil {
		l.itlb, l.dtlb, l.stlb = newTLB(cfg.ITLBEntries), newTLB(cfg.DTLBEntries), newTLB(cfg.STLBEntries)
	} else {
		l.itlb.reset()
		l.dtlb.reset()
		l.stlb.reset()
	}
	// Rebuilt from what survives, so a field added later is zeroed here
	// without being named.
	*l = lane{
		cfg:       cfg,
		dsbSlack:  1/cfg.DSBWidth - 1/cfg.IssueWidth,
		miteSlack: 1/cfg.DecodeWidth - 1/cfg.IssueWidth,
		lat:       [...]float64{cfg.L2Cycles, cfg.LLCCycles, cfg.DRAMNanos * cfg.FreqGHz, cfg.L2Cycles * 0.3},
		itlb:      l.itlb, dtlb: l.dtlb, stlb: l.stlb,
		regions: l.regions[:0], sorted: l.sorted[:0],
	}
}

// Reset re-arms m in place for the hosts cfgs, one lane each: afterwards m
// computes, report for report and lane for lane, what NewLanes(cfgs...)
// would, whatever it ran before and with however many lanes. Every
// structure goes back to its initial state (caches invalidated, LRU orders
// and predictor tables re-initialised, TLBs and the BTB emptied, memos
// forgotten), the address maps, the stream trackers, every counter and the
// Top-Down accounts are dropped, and everything derived from the configs is
// recomputed, since clock, latencies, widths and page modes may all differ
// from the last run's. Only the structures' memory survives, so every cfg
// must validate and have the machine's Sizes; Reset panics otherwise, as
// NewMachine does on a config that does not validate.
func (m *Machine) Reset(cfgs ...Config) {
	sizes := m.lanes[0].cfg.Sizes()
	checkLanes(cfgs, &sizes)
	for _, c := range []*cache{m.l1i, m.l1d, m.l2, m.llc, m.dsb} {
		if c != nil {
			c.reset()
		}
	}
	m.bp.reset()
	// Rebuilt from what survives, so a counter added later is zeroed here
	// without being named.
	*m = Machine{
		lanes: m.lanes,
		l1i:   m.l1i, l1d: m.l1d, l2: m.l2, llc: m.llc, dsb: m.dsb,
		bp: m.bp,
	}
	m.arm(cfgs)
}

// Config returns the configuration of the machine's first lane.
func (m *Machine) Config() Config { return m.lanes[0].cfg }

// Lanes returns how many hosts the machine models.
func (m *Machine) Lanes() int { return len(m.lanes) }

// MapText registers the simulator's code segment, applying each lane's
// huge-page mode.
func (m *Machine) MapText(base, end uint64) {
	for i := range m.lanes {
		m.lanes[i].mapText(base, end)
	}
}

// MapData registers a data range with each lane's base page size.
func (m *Machine) MapData(base, end uint64) {
	for i := range m.lanes {
		l := &m.lanes[i]
		l.addRegion(pageRegion{base, end, l.cfg.PageBytes})
	}
}

func (l *lane) mapText(base, end uint64) {
	switch l.cfg.HugePages {
	case PagesTHP:
		// THP remaps the hottest prefix of the text to huge pages.
		split := base + uint64(float64(end-base)*l.cfg.THPCoverage)
		split &^= l.cfg.HugePageBytes - 1
		if split > base {
			l.addRegion(pageRegion{base, split, l.cfg.HugePageBytes})
		}
		l.addRegion(pageRegion{split, end, l.cfg.PageBytes})
	case PagesEHP:
		l.addRegion(pageRegion{base, end, l.cfg.HugePageBytes})
	default:
		l.addRegion(pageRegion{base, end, l.cfg.PageBytes})
	}
}

// addRegion records r in insertion order and maintains the sorted index
// used by the fast pageOf path. Overlapping registrations (none of the
// current callers produce any) fall back to the insertion-order scan so
// the documented first-match-wins behaviour is preserved exactly.
func (l *lane) addRegion(r pageRegion) {
	for _, have := range l.regions {
		if have == r {
			// Mapping is idempotent: under first-match-wins a repeated
			// region can never answer a lookup, and recording it would only
			// push lookups onto the overlapping-region scan. A session that
			// rebuilds its guest on a kept machine maps the same binary again.
			return
		}
	}
	l.regions = append(l.regions, r)
	if r.end <= r.base {
		return // empty region: can never match an address
	}
	i := sort.Search(len(l.sorted), func(i int) bool { return l.sorted[i].base > r.base })
	if (i > 0 && l.sorted[i-1].end > r.base) || (i < len(l.sorted) && r.end > l.sorted[i].base) {
		// First match wins from here on, which only the scan keeps: no
		// lookup may be answered from the memo any more.
		l.overlapped = true
		l.last = pageMemo{}
		return
	}
	l.sorted = append(l.sorted, pageRegion{})
	copy(l.sorted[i+1:], l.sorted[i:])
	l.sorted[i] = r
}

// pageOf returns the base of the page addr lies in. Consecutive fetches and
// data touches overwhelmingly land in the region hit last, which is
// answered inline from a copy of it; everything else is pageOfSlow.
func (l *lane) pageOf(addr uint64) uint64 {
	if addr-l.last.base < l.last.span {
		return addr &^ l.last.mask
	}
	return l.pageOfSlow(addr)
}

func (l *lane) pageOfSlow(addr uint64) uint64 {
	if l.overlapped {
		for _, r := range l.regions {
			if addr >= r.base && addr < r.end {
				return addr &^ (r.pageBytes - 1)
			}
		}
		return addr &^ (l.cfg.PageBytes - 1)
	}
	// Binary search for the greatest base <= addr. Regions are disjoint
	// here, so it is the only candidate.
	rs := l.sorted
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid].base > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 {
		if r := &rs[lo-1]; addr >= r.base && addr < r.end {
			l.last = pageMemo{r.base, r.end - r.base, r.pageBytes - 1}
			return addr &^ (r.pageBytes - 1)
		}
	}
	return addr &^ (l.cfg.PageBytes - 1)
}

// stlbCost returns the cycles a first-level TLB miss on page costs: the
// STLB lookup, plus a page walk when the STLB misses too.
func (l *lane) stlbCost(page uint64) float64 {
	cost := l.cfg.STLBCycles
	if !l.stlb.access(page) {
		cost += l.cfg.WalkCycles
	}
	return cost
}

// missLevel walks L2 → LLC → DRAM for one missing line and returns the
// level that had it.
func (m *Machine) missLevel(line uint64) int {
	if m.l2.access(line) {
		return levelL2
	}
	if m.llc != nil {
		if m.llc.access(line) {
			return levelLLC
		}
		m.dramBytes += m.llc.geom.LineBytes
	} else {
		m.dramBytes += m.l2.geom.LineBytes
	}
	return levelDRAM
}

// FetchBlock implements hostmodel.Sink.
func (m *Machine) FetchBlock(addr uint64, bytes uint32, uops uint32) {
	lineB := m.l1i.geom.LineBytes
	first := addr &^ (lineB - 1)
	last := (addr + uint64(bytes) - 1) &^ (lineB - 1)
	for line := first; line <= last; line += lineB {
		if !m.l1i.access(line) {
			lv := m.missLevel(line)
			for i := range m.lanes {
				l := &m.lanes[i]
				l.td.FELatICache += l.lat[lv]
			}
		}
	}

	// Uop supply: DSB hit streams decoded uops; otherwise the legacy
	// decode pipeline (MITE) limits bandwidth. Moving between the two
	// costs a cycle either way (a host without a DSB never moves).
	fromDSB := m.dsb != nil && m.dsb.access(addr&^31)
	switched := fromDSB != m.lastWasDSB
	m.lastWasDSB = fromDSB
	if fromDSB {
		m.uopsDSB += uint64(uops)
	} else {
		m.uopsMITE += uint64(uops)
	}
	m.uops += uint64(uops)

	u := float64(uops)
	for i := range m.lanes {
		l := &m.lanes[i]
		if fromDSB {
			if d := u * l.dsbSlack; d > 0 {
				l.td.FEBandwidthDSB += d
			}
			if switched {
				l.td.FEBandwidthDSB += 1.0 // MITE→DSB switch penalty
			}
		} else {
			if d := u * l.miteSlack; d > 0 {
				l.td.FEBandwidthMITE += d
			}
			if switched {
				l.td.FEBandwidthMITE += 1.0 // DSB→MITE switch penalty
			}
		}
		l.td.RetiringCycles += u / l.cfg.IssueWidth
		// Execution-port contention: a small per-uop core-bound tax.
		l.td.BECoreCycles += u * 0.005
		// Instruction TLB on the first page touched. It comes last, so the
		// calls it may make have nothing of the loop body left to save.
		if page := l.pageOf(addr); !l.itlb.access(page) {
			l.td.FELatITLB += l.stlbCost(page)
		}
	}
}

// Branch implements hostmodel.Sink.
func (m *Machine) Branch(pc, target uint64, taken, indirect bool) {
	m.branches++
	if indirect {
		if !m.bp.indirect(pc, target) {
			// Unknown target: the front end stalls until the branch unit
			// resolves it (a BAClear), with no wrong-path execution.
			for i := range m.lanes {
				l := &m.lanes[i]
				l.td.FELatUnknownBranch += l.cfg.BAClearCycles
			}
		}
		return
	}
	if !m.bp.conditional(pc, taken) {
		// A real misprediction: wasted back-end slots plus the front-end
		// resteer to refill the pipe, and the machine-clear share.
		for i := range m.lanes {
			l := &m.lanes[i]
			l.td.BadSpecCycles += l.cfg.MispredictCycles
			l.td.FELatMispredictResteer += l.cfg.ResteerCycles
			l.td.FELatClearResteer += 0.2 * l.cfg.ResteerCycles
		}
	}
}

// Data implements hostmodel.Sink.
func (m *Machine) Data(addr uint64, size uint32, write bool) {
	if write {
		m.dataWrites++
	} else {
		m.dataReads++
	}
	for i := range m.lanes {
		l := &m.lanes[i]
		if page := l.pageOf(addr); !l.dtlb.access(page) {
			l.td.BEMemCycles += l.stlbCost(page)
		}
	}
	line := addr &^ (m.l1d.geom.LineBytes - 1)
	if m.l1d.access(line) {
		return
	}
	lv := m.missLevel(line)
	if m.streamHit(line) {
		// The stream prefetcher already issued this line: the demand
		// access pays only a residual L2-ish latency.
		m.prefetched++
		lv = levelStream
	}
	for i := range m.lanes {
		l := &m.lanes[i]
		factor := 1 - l.cfg.MLPOverlap
		if write && lv != levelStream {
			// Stores retire before the miss completes; only buffer
			// pressure shows up.
			factor *= 0.4
		}
		l.td.BEMemCycles += l.lat[lv] * factor
	}
}

// streamHit reports whether line continues a tracked ascending stream, and
// trains the trackers.
func (m *Machine) streamHit(line uint64) bool {
	lb := m.l1d.geom.LineBytes
	for i := range m.streams {
		if line == m.streams[i]+lb || line == m.streams[i]+2*lb {
			m.streams[i] = line
			return true
		}
	}
	// New potential stream replaces the oldest tracker.
	m.streams[m.streamNext] = line
	m.streamNext = (m.streamNext + 1) % len(m.streams)
	return false
}

// Machines is several machines fed one record stream, each every record in
// order: the host side of a sweep whose hosts differ in Sizes, one machine
// per Sizes with a lane per host. It implements hostmodel.Sink. No machine
// reads another, so each computes what it computes alone.
type Machines []*Machine

// FetchBlock implements hostmodel.Sink.
func (ms Machines) FetchBlock(addr uint64, bytes uint32, uops uint32) {
	for _, m := range ms {
		m.FetchBlock(addr, bytes, uops)
	}
}

// Branch implements hostmodel.Sink.
func (ms Machines) Branch(pc, target uint64, taken, indirect bool) {
	for _, m := range ms {
		m.Branch(pc, target, taken, indirect)
	}
}

// Data implements hostmodel.Sink.
func (ms Machines) Data(addr uint64, size uint32, write bool) {
	for _, m := range ms {
		m.Data(addr, size, write)
	}
}

type sink interface {
	FetchBlock(addr uint64, bytes uint32, uops uint32)
	Branch(pc, target uint64, taken, indirect bool)
	Data(addr uint64, size uint32, write bool)
}

var (
	_ sink = (*Machine)(nil)
	_ sink = Machines(nil)
)

// Cycles returns the total modeled host cycles so far of the first lane.
func (m *Machine) Cycles() float64 { return m.lanes[0].td.Total() }

// TimeSeconds returns modeled host seconds (the paper's simulation time
// metric) of the first lane.
func (m *Machine) TimeSeconds() float64 { return m.LaneTimeSeconds(0) }

// LaneTimeSeconds returns modeled host seconds of lane i.
func (m *Machine) LaneTimeSeconds(i int) float64 {
	l := &m.lanes[i]
	return l.td.Total() / (l.cfg.FreqGHz * 1e9)
}
