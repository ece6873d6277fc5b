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

// Machine is one modeled host machine consuming the hostmodel micro-event
// stream. It implements hostmodel.Sink.
type Machine struct {
	cfg Config

	// The two divisions FetchBlock would otherwise redo per block, done
	// once: the same expressions on the same operands, so bit-identical.
	dsbSlack  float64 // 1/DSBWidth - 1/IssueWidth
	miteSlack float64 // 1/DecodeWidth - 1/IssueWidth

	l1i, l1d, l2, llc *cache
	itlb, dtlb, stlb  *tlb
	dsb               *cache
	bp                *gshare

	// regions holds page regions in insertion order (the documented
	// first-match-wins contract); sorted holds the same regions ordered by
	// base for the O(log n) lookup, valid only while they stay disjoint.
	regions    []pageRegion
	sorted     []pageRegion
	overlapped bool
	lastRegion int // memo: index into sorted of the last region hit

	td         TopDown
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

// NewMachine builds a host machine model from a validated config.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		l1i:  newCache(cfg.L1I, false),
		l1d:  newCache(cfg.L1D, false),
		l2:   newCache(cfg.L2, true),
		itlb: newTLB(cfg.ITLBEntries),
		dtlb: newTLB(cfg.DTLBEntries),
		stlb: newTLB(cfg.STLBEntries),
		bp:   newGshare(cfg.BPTableEntries, cfg.BTBEntries),
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
	m.arm(cfg)
	return m
}

// arm is the part of construction that reads cfg's scalars.
func (m *Machine) arm(cfg Config) {
	m.cfg = cfg
	m.dsbSlack = 1/cfg.DSBWidth - 1/cfg.IssueWidth
	m.miteSlack = 1/cfg.DecodeWidth - 1/cfg.IssueWidth
}

// Reset re-arms m for cfg in place: afterwards m computes, report for
// report, what NewMachine(cfg) would, whatever it ran before. Every
// structure goes back to its initial state (caches invalidated, LRU orders
// and predictor tables re-initialised, TLBs and the BTB emptied, memos
// forgotten), the address map, the stream trackers, every counter and the
// Top-Down account are dropped, and everything derived from the config is
// recomputed, since clock, latencies, widths and page modes may all differ
// from the last run's. Only the structures' memory survives, so cfg must
// validate and have the machine's Sizes; Reset panics otherwise, as
// NewMachine does on a config that does not validate.
func (m *Machine) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Sizes() != m.cfg.Sizes() {
		panic(fmt.Sprintf("uarch: Reset: %s does not have the structure sizes of %s", cfg.Name, m.cfg.Name))
	}
	for _, c := range []*cache{m.l1i, m.l1d, m.l2, m.llc, m.dsb} {
		if c != nil {
			c.reset()
		}
	}
	m.itlb.reset()
	m.dtlb.reset()
	m.stlb.reset()
	m.bp.reset()
	// Rebuilt from what survives, so a counter added later is zeroed here
	// without being named.
	*m = Machine{
		l1i: m.l1i, l1d: m.l1d, l2: m.l2, llc: m.llc, dsb: m.dsb,
		itlb: m.itlb, dtlb: m.dtlb, stlb: m.stlb, bp: m.bp,
		regions: m.regions[:0], sorted: m.sorted[:0],
	}
	m.arm(cfg)
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// MapText registers the simulator's code segment, applying the configured
// huge-page mode.
func (m *Machine) MapText(base, end uint64) {
	switch m.cfg.HugePages {
	case PagesTHP:
		// THP remaps the hottest prefix of the text to huge pages.
		split := base + uint64(float64(end-base)*m.cfg.THPCoverage)
		split &^= m.cfg.HugePageBytes - 1
		if split > base {
			m.addRegion(pageRegion{base, split, m.cfg.HugePageBytes})
		}
		m.addRegion(pageRegion{split, end, m.cfg.PageBytes})
	case PagesEHP:
		m.addRegion(pageRegion{base, end, m.cfg.HugePageBytes})
	default:
		m.addRegion(pageRegion{base, end, m.cfg.PageBytes})
	}
}

// MapData registers a data range with the base page size.
func (m *Machine) MapData(base, end uint64) {
	m.addRegion(pageRegion{base, end, m.cfg.PageBytes})
}

// addRegion records r in insertion order and maintains the sorted index
// used by the fast pageOf path. Overlapping registrations (none of the
// current callers produce any) fall back to the insertion-order scan so
// the documented first-match-wins behaviour is preserved exactly.
func (m *Machine) addRegion(r pageRegion) {
	for _, have := range m.regions {
		if have == r {
			// Mapping is idempotent: under first-match-wins a repeated
			// region can never answer a lookup, and recording it would only
			// push lookups onto the overlapping-region scan. A session that
			// rebuilds its guest on a kept machine maps the same binary again.
			return
		}
	}
	m.regions = append(m.regions, r)
	if r.end <= r.base {
		return // empty region: can never match an address
	}
	i := sort.Search(len(m.sorted), func(i int) bool { return m.sorted[i].base > r.base })
	if (i > 0 && m.sorted[i-1].end > r.base) || (i < len(m.sorted) && r.end > m.sorted[i].base) {
		m.overlapped = true
		return
	}
	m.sorted = append(m.sorted, pageRegion{})
	copy(m.sorted[i+1:], m.sorted[i:])
	m.sorted[i] = r
	m.lastRegion = 0
}

func (m *Machine) pageOf(addr uint64) uint64 {
	if m.overlapped {
		for _, r := range m.regions {
			if addr >= r.base && addr < r.end {
				return addr &^ (r.pageBytes - 1)
			}
		}
		return addr &^ (m.cfg.PageBytes - 1)
	}
	// Fast path: consecutive fetches and data touches overwhelmingly land
	// in the region hit last time.
	rs := m.sorted
	if lr := m.lastRegion; lr < len(rs) {
		if r := &rs[lr]; addr >= r.base && addr < r.end {
			return addr &^ (r.pageBytes - 1)
		}
	}
	// Miss path: binary search for the greatest base <= addr. Regions are
	// disjoint here, so it is the only candidate.
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
			m.lastRegion = lo - 1
			return addr &^ (r.pageBytes - 1)
		}
	}
	return addr &^ (m.cfg.PageBytes - 1)
}

// missLatency walks L2 → LLC → DRAM for one missing line and returns the
// latency in cycles.
func (m *Machine) missLatency(line uint64) float64 {
	if m.l2.access(line) {
		return m.cfg.L2Cycles
	}
	if m.llc != nil {
		if m.llc.access(line) {
			return m.cfg.LLCCycles
		}
		m.dramBytes += m.cfg.LLC.LineBytes
	} else {
		m.dramBytes += m.cfg.L2.LineBytes
	}
	return m.cfg.DRAMNanos * m.cfg.FreqGHz
}

// FetchBlock implements hostmodel.Sink.
func (m *Machine) FetchBlock(addr uint64, bytes uint32, uops uint32) {
	lineB := m.cfg.L1I.LineBytes
	first := addr &^ (lineB - 1)
	last := (addr + uint64(bytes) - 1) &^ (lineB - 1)
	for line := first; line <= last; line += lineB {
		if !m.l1i.access(line) {
			m.td.FELatICache += m.missLatency(line)
		}
	}
	// Instruction TLB on the first page touched.
	page := m.pageOf(addr)
	if !m.itlb.access(page) {
		cost := m.cfg.STLBCycles
		if !m.stlb.access(page) {
			cost += m.cfg.WalkCycles
		}
		m.td.FELatITLB += cost
	}

	// Uop supply: DSB hit streams decoded uops; otherwise the legacy
	// decode pipeline (MITE) limits bandwidth.
	u := float64(uops)
	fromDSB := false
	if m.dsb != nil {
		fromDSB = m.dsb.access(addr &^ 31)
	}
	if fromDSB {
		m.uopsDSB += uint64(uops)
		if d := u * m.dsbSlack; d > 0 {
			m.td.FEBandwidthDSB += d
		}
		if !m.lastWasDSB {
			m.td.FEBandwidthDSB += 1.0 // MITE→DSB switch penalty
		}
	} else {
		m.uopsMITE += uint64(uops)
		if d := u * m.miteSlack; d > 0 {
			m.td.FEBandwidthMITE += d
		}
		if m.lastWasDSB && m.dsb != nil {
			m.td.FEBandwidthMITE += 1.0 // DSB→MITE switch penalty
		}
	}
	m.lastWasDSB = fromDSB

	m.uops += uint64(uops)
	m.td.RetiringCycles += u / m.cfg.IssueWidth
	// Execution-port contention: a small per-uop core-bound tax.
	m.td.BECoreCycles += u * 0.005
}

// Branch implements hostmodel.Sink.
func (m *Machine) Branch(pc, target uint64, taken, indirect bool) {
	m.branches++
	if indirect {
		if !m.bp.indirect(pc, target) {
			// Unknown target: the front end stalls until the branch unit
			// resolves it (a BAClear), with no wrong-path execution.
			m.td.FELatUnknownBranch += m.cfg.BAClearCycles
		}
		return
	}
	if !m.bp.conditional(pc, taken) {
		// A real misprediction: wasted back-end slots plus the front-end
		// resteer to refill the pipe, and the machine-clear share.
		m.td.BadSpecCycles += m.cfg.MispredictCycles
		m.td.FELatMispredictResteer += m.cfg.ResteerCycles
		m.td.FELatClearResteer += 0.2 * m.cfg.ResteerCycles
	}
}

// Data implements hostmodel.Sink.
func (m *Machine) Data(addr uint64, size uint32, write bool) {
	if write {
		m.dataWrites++
	} else {
		m.dataReads++
	}
	page := m.pageOf(addr)
	if !m.dtlb.access(page) {
		cost := m.cfg.STLBCycles
		if !m.stlb.access(page) {
			cost += m.cfg.WalkCycles
		}
		m.td.BEMemCycles += cost
	}
	line := addr &^ (m.cfg.L1D.LineBytes - 1)
	if !m.l1d.access(line) {
		lat := m.missLatency(line)
		factor := 1 - m.cfg.MLPOverlap
		switch {
		case m.streamHit(line):
			// The stream prefetcher already issued this line: the demand
			// access pays only a residual L2-ish latency.
			m.prefetched++
			lat = m.cfg.L2Cycles * 0.3
		case write:
			// Stores retire before the miss completes; only buffer
			// pressure shows up.
			factor *= 0.4
		}
		m.td.BEMemCycles += lat * factor
	}
}

// streamHit reports whether line continues a tracked ascending stream, and
// trains the trackers.
func (m *Machine) streamHit(line uint64) bool {
	lb := m.cfg.L1D.LineBytes
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

var _ interface {
	FetchBlock(addr uint64, bytes uint32, uops uint32)
	Branch(pc, target uint64, taken, indirect bool)
	Data(addr uint64, size uint32, write bool)
} = (*Machine)(nil)

// Cycles returns the total modeled host cycles so far.
func (m *Machine) Cycles() float64 { return m.td.Total() }

// TimeSeconds returns modeled host seconds (the paper's simulation time
// metric).
func (m *Machine) TimeSeconds() float64 {
	return m.td.Total() / (m.cfg.FreqGHz * 1e9)
}
