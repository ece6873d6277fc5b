// Package uarch models the host machine the simulator runs on: VIPT L1
// caches, a cache hierarchy with LLC occupancy tracking, multi-level TLBs
// with configurable page sizes, a branch predictor with a BTB, the decoded
// uop cache (DSB) versus legacy decoder (MITE) front end, and Top-Down
// cycle accounting in the style of VTune's microarchitecture analysis.
//
// The structures are simulated exactly (tags, LRU, history); cycles are
// composed from their outcomes with a calibrated analytical model (see
// DESIGN.md), which is what lets every figure of the paper be regenerated
// in simulation.
package uarch

import (
	"fmt"
	"math/bits"
)

// CacheGeom is the geometry of one cache level.
type CacheGeom struct {
	SizeBytes uint64
	Ways      int
	LineBytes uint64
}

// Sets returns the set count.
func (g CacheGeom) Sets() uint64 {
	return g.SizeBytes / (uint64(g.Ways) * g.LineBytes)
}

const (
	maxWays    = 16                 // a set's recency order packs 4-bit way numbers into one word
	eachNibble = 0x1111111111111111 // the low bit of every 4-bit field

	// A sparse cache hands rows out of chunks of this many: big enough that
	// a session's few thousand rows are a few dozen allocations, small enough
	// that the unused tail of the last one does not show.
	chunkBits = 7
	chunkRows = 1 << chunkBits
)

// cache is a set-associative exact-LRU cache over 64-bit host addresses.
//
// A set is a row of keys — block<<1|1, or 0 for a way never filled, so that
// a hit scan reads one contiguous row and nothing else — and one order word
// holding the way numbers from most (bits 0-3) to least recently used: a
// lookup rewrites that one word, and a miss takes its victim from the top
// of it without scanning. Every hit, miss and victim is what a scan over
// {tag, valid, lru} structs yields (the differential tests), by three
// invariants argued in DESIGN.md. Exact LRU: a lookup moves its way to the
// front and keeps the others' relative order. Fill order: way w starts in
// position w and only filled ways move, so a set fills from its last way
// down before it evicts. Memo: the previous access's block is resident and
// already in front, so repeating it is a hit that changes nothing and skips
// the arrays.
//
// Where the rows live is fixed by the level at construction. The L1s and
// the DSB take nearly every lookup and are dense: keys is set-major
// (keys[set*ways+way]) and order has one word per set. The L2 and the LLC
// are megabytes of which a run touches a few percent, and are sparse: rowOf
// holds, per set, one more than the number of its row, 0 for a set never
// touched, and a row — its order word, then its keys — is taken from chunks
// on the set's first lookup. Chunks are never copied or moved and survive
// reset, so a cache costs its set index plus the rows it has ever used.
// Both kinds run the one row routine in lookup.
type cache struct {
	geom  CacheGeom
	keys  []uint64 // dense: sets × ways
	order []uint64 // dense: per set

	rowOf  []uint32   // sparse: per set, row number + 1
	chunks [][]uint64 // sparse: chunkRows rows of 1+ways words each
	used   uint32     // sparse: rows handed out since the last reset

	initial  uint64 // a set's order word before its first lookup: way w in position w
	setMask  uint64
	setBits  uint
	lineBits uint
	ways     uint64
	// lastBlock is the block of the previous access; before the first it
	// is all ones, which no address shifted right by lineBits >= 1 equals.
	lastBlock uint64

	CacheCounts
	resident uint64 // valid line count for occupancy

	// evictedTag/evictedOK record the most recent eviction of a valid
	// line; written only on the (already expensive) eviction path, read
	// by the differential tests.
	evictedTag uint64
	evictedOK  bool
}

// check reports what is wrong with a geometry, or "". A line has at least
// two bytes so that block<<1 cannot overflow a key.
func (g CacheGeom) check() string {
	switch {
	case g.Ways < 1 || g.Ways > maxWays:
		return fmt.Sprintf("%d ways, want 1..%d", g.Ways, maxWays)
	case g.LineBytes < 2 || g.LineBytes&(g.LineBytes-1) != 0:
		return fmt.Sprintf("line size %d B is not a power of two >= 2", g.LineBytes)
	case g.Sets() == 0 || g.Sets()&(g.Sets()-1) != 0:
		return fmt.Sprintf("%d B is not a power-of-two number of %d-way sets", g.SizeBytes, g.Ways)
	}
	return ""
}

// newCache builds a cache of geometry g, sparse or dense.
func newCache(g CacheGeom, sparse bool) *cache {
	if msg := g.check(); msg != "" {
		panic("uarch: cache: " + msg)
	}
	sets := g.Sets()
	c := &cache{
		geom:     g,
		initial:  0xFEDCBA9876543210 & (1<<(4*uint(g.Ways)) - 1),
		setMask:  sets - 1,
		setBits:  uint(bits.OnesCount64(sets - 1)),
		lineBits: uint(bits.TrailingZeros64(g.LineBytes)),
		ways:     uint64(g.Ways),
	}
	if sparse {
		c.rowOf = make([]uint32, sets)
	} else {
		c.keys = make([]uint64, sets*c.ways)
		c.order = make([]uint64, sets)
	}
	c.arm()
	return c
}

// arm puts the cache in its initial state, given dense keys or a set index
// that are all zero: every set in fill order, the memo empty, the counters
// at zero. The struct is rebuilt from the fields that survive, so a counter
// added later starts from zero here without being named.
func (c *cache) arm() {
	*c = cache{
		geom: c.geom, keys: c.keys, order: c.order, rowOf: c.rowOf, chunks: c.chunks,
		initial: c.initial, setMask: c.setMask, setBits: c.setBits, lineBits: c.lineBits, ways: c.ways,
		lastBlock: ^uint64(0),
	}
	for i := range c.order {
		c.order[i] = c.initial
	}
}

// reset empties the cache in place; what follows is what a new cache of the
// same geometry does. With 0 meaning never filled, invalidating a dense
// cache is a clear; a sparse one forgets which sets have rows and hands the
// rows it keeps out again, each initialised as it is taken.
func (c *cache) reset() {
	clear(c.keys)
	clear(c.rowOf)
	c.arm()
}

// sparseRow returns the keys and the order word of set's row. A set that has
// none gets the next unused one, empty and in fill order, when take is set,
// and nil otherwise.
func (c *cache) sparseRow(set uint64, take bool) ([]uint64, *uint64) {
	r := c.rowOf[set]
	fresh := r == 0
	if fresh {
		if !take {
			return nil, nil
		}
		if int(c.used>>chunkBits) == len(c.chunks) {
			c.chunks = append(c.chunks, make([]uint64, chunkRows*(c.ways+1)))
		}
		c.used++
		r = c.used
		c.rowOf[set] = r
	}
	chunk := c.chunks[(r-1)>>chunkBits]
	at := uint64((r-1)&(chunkRows-1)) * (c.ways + 1)
	keys, order := chunk[at+1:at+1+c.ways], &chunk[at]
	if fresh {
		// A row of a chunk kept across a reset still holds the last run's.
		*order = c.initial
		clear(keys)
	}
	return keys, order
}

// access looks up addr, filling on miss. Returns true on hit. It is small
// enough to inline, so a same-line repeat costs its caller one compare.
func (c *cache) access(addr uint64) bool {
	c.Accesses++
	block := addr >> c.lineBits
	return block == c.lastBlock || c.lookup(block)
}

// lookup is access past the memo.
func (c *cache) lookup(block uint64) bool {
	c.lastBlock = block
	key := block<<1 | 1
	set := block & c.setMask
	var row []uint64
	var order *uint64
	if c.rowOf == nil {
		row, order = c.keys[set*c.ways:(set+1)*c.ways], &c.order[set]
	} else {
		row, order = c.sparseRow(set, true)
	}
	// No early exit: at most one way matches, and a fixed-length scan
	// compiles to conditional moves, where leaving at the (unpredictable)
	// hit way would be a mispredicted branch.
	way := -1
	for i, k := range row {
		if k == key {
			way = i
		}
	}
	ord := *order
	if way >= 0 {
		// Find way's nibble: the lowest zero nibble of x (one above the
		// set's ways is zero only for way 0, whose own nibble is lower).
		// Move it to the front, shifting the nibbles below it up.
		x := ord ^ uint64(way)*eachNibble
		pos := uint(bits.TrailingZeros64((x-eachNibble)&^x&(eachNibble<<3))) - 3
		below := uint64(1)<<pos - 1
		*order = ord&^(below|0xF<<pos) | ord&below<<4 | uint64(way)
		return true
	}
	c.Misses++
	back := uint(c.ways-1) * 4
	victim := ord >> back
	*order = ord&^(0xF<<back)<<4 | victim
	if old := row[victim]; old == 0 {
		c.resident++
	} else {
		c.evictedTag, c.evictedOK = old>>1>>c.setBits, true
	}
	row[victim] = key
	return false
}

// probe reports whether addr is resident without updating state.
func (c *cache) probe(addr uint64) bool {
	block := addr >> c.lineBits
	key := block<<1 | 1
	set := block & c.setMask
	var row []uint64
	if c.rowOf == nil {
		row = c.keys[set*c.ways : (set+1)*c.ways]
	} else {
		row, _ = c.sparseRow(set, false)
	}
	for _, k := range row {
		if k == key {
			return true
		}
	}
	return false
}

// OccupancyBytes returns resident lines times the line size.
func (c *cache) OccupancyBytes() uint64 { return c.resident * c.geom.LineBytes }

// gshare is a tournament direction predictor (per-PC bimodal + global
// history gshare + a choice table) with a BTB for indirect targets, loosely
// modeling the Xeon's and M1's front-end predictors.
type gshare struct {
	bimodal []uint8 // 2-bit counters indexed by PC
	global  []uint8 // 2-bit counters indexed by PC^history
	choice  []uint8 // 2-bit: >=2 means trust global
	mask    uint64
	history uint64

	btb []struct {
		tag, target uint64
		valid       bool
	}
	btbMask uint64

	BranchCounts
}

func newGshare(tableEntries, btbEntries int) *gshare {
	if tableEntries&(tableEntries-1) != 0 || btbEntries&(btbEntries-1) != 0 {
		panic("uarch: predictor sizes must be powers of two")
	}
	g := &gshare{
		bimodal: make([]uint8, tableEntries),
		global:  make([]uint8, tableEntries),
		choice:  make([]uint8, tableEntries),
		mask:    uint64(tableEntries - 1),
	}
	g.btb = make([]struct {
		tag, target uint64
		valid       bool
	}, btbEntries)
	g.btbMask = uint64(btbEntries - 1)
	g.reset()
	return g
}

// reset puts the predictor in its initial state in place: untrained tables,
// an empty BTB, no history, counters at zero.
func (g *gshare) reset() {
	*g = gshare{bimodal: g.bimodal, global: g.global, choice: g.choice, mask: g.mask,
		btb: g.btb, btbMask: g.btbMask}
	for i := range g.bimodal {
		g.bimodal[i] = 2 // weakly taken
		g.global[i] = 2
		g.choice[i] = 1 // prefer bimodal until global proves itself
	}
	clear(g.btb)
}

// satNext[c][t] is a 2-bit saturating counter c after an outcome t (1 for
// taken): one step toward 3 when taken, toward 0 when not.
var satNext = [4][2]uint8{{0, 1}, {0, 2}, {1, 3}, {2, 3}}

// choiceNext[c][bw][gw] is the choice counter c after a branch that bimodal
// mispredicted when bw is 1 and global when gw is 1: one step toward global
// (3) when bimodal alone was wrong, toward bimodal (0) when global alone was,
// and unmoved when both or neither were.
var choiceNext = [4][2][2]uint8{
	{{0, 0}, {1, 0}},
	{{1, 0}, {2, 1}},
	{{2, 1}, {3, 2}},
	{{3, 2}, {3, 3}},
}

// conditional predicts and trains one conditional branch; returns true when
// the prediction was correct. It takes no branch on the modeled branch's
// outcome: the counters move by table and the prediction is picked by
// arithmetic, since the outcome is the modeled program's noise and a host
// branch on it mispredicts as often as the model does (DESIGN §25).
func (g *gshare) conditional(pc uint64, taken bool) bool {
	g.Lookups++
	t := b2u8(taken)
	bi := (pc >> 1) & g.mask
	gi := (pc>>1 ^ g.history) & g.mask
	// Counters stay in 0..3: the masks change no value and spare the tables
	// their bounds checks.
	b, gl, ch := g.bimodal[bi]&3, g.global[gi]&3, g.choice[bi]&3
	bPred, gPred := b>>1, gl>>1
	miss := bPred ^ (bPred^gPred)&(ch>>1) ^ t
	g.choice[bi] = choiceNext[ch][bPred^t][gPred^t]
	g.bimodal[bi] = satNext[b][t]
	g.global[gi] = satNext[gl][t]
	g.history = g.history<<1 | uint64(t)
	g.Mispredicts += uint64(miss)
	return miss == 0
}

// indirect predicts and trains one indirect branch; returns true when the
// BTB had the right target.
func (g *gshare) indirect(pc, target uint64) bool {
	g.Lookups++
	e := &g.btb[(pc>>1)&g.btbMask]
	miss := b2u64(!e.valid) | b2u64(e.tag != pc) | b2u64(e.target != target)
	g.IndirectClears += miss
	g.Mispredicts += miss
	e.tag, e.target, e.valid = pc, target, true
	return miss == 0
}

func b2u64(b bool) uint64 { return uint64(b2u8(b)) }

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
