package uarch

import "math/bits"

// unitKind is what a Unit simulates.
type unitKind uint8

const (
	kindL1I unitKind = iota
	kindL1D          // with the stream-prefetch trackers
	kindL2
	kindLLC // with the DRAM byte count; a host without an LLC has one with no cache
	kindDSB // a host without a uop cache has one with no cache
	kindBP  // the tournament predictor and the BTB
	kindXlat
	numKinds
)

var kindNames = [numKinds]string{"L1I", "L1D", "L2", "LLC", "DSB", "predictor", "translation"}

// UnitKey names a Unit: its kind, and the part of a Config that fixes what
// the unit computes from the record stream — its own geometry and that of
// every unit upstream of it. Hosts whose configs give one key share one unit.
//
//   - L1I: the L1I; L1D: the L1D; DSB: DSBUops; predictor: BPTableEntries
//     and BTBEntries.
//   - L2: the L1I, the L1D and the L2, since the L1s decide which lines
//     reach it.
//   - LLC: the L1I, the L1D, the L2 and the LLC.
//   - translation (the address map, the iTLB, the dTLB and the STLB they
//     share): PageBytes, HugePages, HugePageBytes, THPCoverage and the three
//     TLB sizes, since the page an address lies in depends on the first four.
//
// Every other field of a Config only prices what the units report.
type UnitKey struct {
	kind                                  unitKind
	l1i, l1d, l2, llc                     CacheGeom
	dsbUops                               int
	bpEntries, btbEntries                 int
	pageBytes, hugePageBytes              uint64
	hugePages                             HugePageMode
	thpCoverage                           float64
	itlbEntries, dtlbEntries, stlbEntries int
}

// Kind names the unit's kind: "L1I", "L1D", "L2", "LLC", "DSB",
// "predictor" or "translation".
func (k UnitKey) Kind() string { return kindNames[k.kind] }

// keyOf returns the key of c's unit of kind k.
func keyOf(k unitKind, c *Config) UnitKey {
	key := UnitKey{kind: k}
	switch k {
	case kindL1I:
		key.l1i = c.L1I
	case kindL1D:
		key.l1d = c.L1D
	case kindLLC:
		key.llc = c.LLC
		fallthrough
	case kindL2:
		key.l1i, key.l1d, key.l2 = c.L1I, c.L1D, c.L2
	case kindDSB:
		key.dsbUops = c.DSBUops
	case kindBP:
		key.bpEntries, key.btbEntries = c.BPTableEntries, c.BTBEntries
	case kindXlat:
		key.pageBytes, key.hugePageBytes = c.PageBytes, c.HugePageBytes
		key.hugePages, key.thpCoverage = c.HugePages, c.THPCoverage
		key.itlbEntries, key.dtlbEntries, key.stlbEntries = c.ITLBEntries, c.DTLBEntries, c.STLBEntries
	}
	return key
}

// Unit is one structure a Machine simulates for every lane whose host has
// its key: an L1I; an L1D and its stream trackers; an L2; an LLC, the DRAM
// bytes behind it and the L1 misses by the level that served them; a uop
// cache; a predictor and BTB; or a translation unit. Its input is the record
// stream and its key, so it computes, and counts, what the same structure of
// any of those hosts computes alone. A machine's idle units may be kept
// (Machine.Release) and handed to another machine (Assemble), which resets
// them first.
type Unit struct {
	next *Unit // the next unit of the machine's list of this kind

	// down are the units an L1's or an L2's misses go on to: the L2 units
	// below an L1, the LLC units below an L2.
	down []*Unit

	// The structure, held in the unit so that a record reaches it with
	// one load less: the cache of an L1I, L1D or L2 unit, and of an LLC or
	// DSB unit when hasC (a host may have neither); the tables of a
	// predictor unit; the address map and TLBs of a translation unit.
	c    cache
	hasC bool
	bp   gshare
	tr   translation

	// L1D: hardware stream-prefetcher trackers, ascending sequences of line
	// addresses whose misses are hidden.
	streams    [16]uint64
	streamNext int

	// DSB: which supplied the previous block's uops (1 for the DSB), and
	// the counts.
	lastDSB uint64
	dsb     DSBCounts

	// LLC: what a line that misses the last level brings from DRAM, and
	// the counts.
	fillBytes uint64
	llc       LLCCounts

	// The record methods never read the key, so it comes last.
	key UnitKey
}

// Key returns the unit's key.
func (u *Unit) Key() UnitKey { return u.key }

// newUnit builds the unit of key k for c, which has that key.
func newUnit(k UnitKey, c *Config) *Unit {
	u := &Unit{key: k}
	switch k.kind {
	case kindL1I:
		u.c, u.hasC = *newCache(c.L1I), true
	case kindL1D:
		u.c, u.hasC = *newCache(c.L1D), true
	case kindL2:
		u.c, u.hasC = *newCache(c.L2), true
	case kindLLC:
		u.fillBytes = c.L2.LineBytes
		if c.LLC.SizeBytes > 0 {
			// Two-level hosts (the FireSim Rocket) have no LLC.
			u.c, u.hasC = *newCache(c.LLC), true
			u.fillBytes = c.LLC.LineBytes
		}
	case kindDSB:
		if c.DSBUops > 0 {
			u.c, u.hasC = *newCache(dsbGeom(c.DSBUops)), true
		}
	case kindBP:
		u.bp = *newGshare(c.BPTableEntries, c.BTBEntries)
	case kindXlat:
		u.tr = *newTranslation(c)
	}
	return u
}

// dsbGeom is the uop cache of a host with uops of capacity. The DSB holds
// decoded uops for 32-byte code windows; its effective reach in code bytes
// is about one byte per uop capacity once per-window fragmentation is
// accounted for, so only loops of roughly a kilobyte live entirely out of
// it. The set count is rounded up to a power of two (1536 uops reach
// 2048 B).
func dsbGeom(uops int) CacheGeom {
	const ways, window = 8, 32
	sets := uint64(1)
	if n := uint64(uops) / (ways * window); n > 1 {
		sets = 1 << uint(bits.Len64(n-1))
	}
	return CacheGeom{SizeBytes: sets * ways * window, Ways: ways, LineBytes: window}
}

// reset puts the unit in the state newUnit left it in, keeping its
// structures' memory and its lists' capacity.
func (u *Unit) reset() {
	if u.hasC {
		u.c.reset()
	}
	switch u.key.kind {
	case kindBP:
		u.bp.reset()
	case kindXlat:
		u.tr.reset()
	}
	// Rebuilt from what survives, so a field added later is zeroed here
	// without being named.
	*u = Unit{
		key: u.key, next: u.next, down: u.down,
		c: u.c, hasC: u.hasC, bp: u.bp, tr: u.tr,
		fillBytes: u.fillBytes,
	}
}

// unlink empties the unit's list, so that an idle unit holds on to no unit
// of the machine it left.
func (u *Unit) unlink() {
	clear(u.down)
	u.down = u.down[:0]
}

// fill resolves a line the L2 above the LLC unit w missed: the LLC has it,
// or DRAM does.
func (w *Unit) fill(line uint64) int {
	if w.hasC && w.c.access(line) {
		return levelLLC
	}
	w.llc.DRAMBytes += w.fillBytes
	return levelDRAM
}

// miss resolves line, which the L1 unit u missed, in each L2 unit below it
// and each LLC unit below those, which counts it in row by the level that
// served it: levelStream for a data miss the stream prefetcher had issued.
func (u *Unit) miss(line uint64, row int, stream bool) {
	for _, v := range u.down {
		hit := v.c.access(line)
		for _, w := range v.down {
			lv := levelL2
			if !hit {
				lv = w.fill(line)
			}
			if stream {
				lv = levelStream
			}
			w.llc.Misses[row][lv]++
		}
	}
}

// streamHit reports whether line continues a tracked ascending stream, and
// trains the trackers of the L1D unit u.
func (u *Unit) streamHit(line uint64) bool {
	lb := u.c.geom.LineBytes
	for i := range u.streams {
		if line == u.streams[i]+lb || line == u.streams[i]+2*lb {
			u.streams[i] = line
			return true
		}
	}
	// New potential stream replaces the oldest tracker.
	u.streams[u.streamNext] = line
	u.streamNext = (u.streamNext + 1) % len(u.streams)
	return false
}
