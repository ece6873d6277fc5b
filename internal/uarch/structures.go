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
	"slices"
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

	// addrBits bounds the addresses a cache is given: they are below 2^47,
	// the top of user space, under which hostmodel keeps the modeled
	// simulator's text, heap and stack (hostmodel.AddrLimit).
	addrBits = 47
	// sparseWayBytes is what one way must span for a cache to be sparse.
	// The set and the line offset then take at least 16 bits of an address,
	// so the tag of one below 2^addrBits has at most 31 and tag<<1|1 fits a
	// 4-byte key.
	sparseWayBytes = 1 << 16
	tagLimit       = 1 << addrBits / sparseWayBytes

	// A sparse cache hands rows out of chunks of this many: big enough that
	// a session's few thousand rows are a few dozen allocations, small enough
	// that the unused tail of the last one does not show.
	chunkBits = 7
	chunkRows = 1 << chunkBits

	// A sparse row holds 2, 4, 8 or ways keys, the class capped at ways.
	// rowOf names a row by its class in the low classBits bits and its
	// number in the class plus one above them, so a class can number 2^30-1
	// rows. A class never has more rows than the cache has sets, which
	// maxSparseSets, the largest power of two below that, bounds.
	numClasses    = 4
	classBits     = 2
	maxSparseSets = 1 << (32 - classBits - 1)
)

// cache is a set-associative exact-LRU cache over host addresses.
//
// A set is a row of keys — tag<<1|1, or 0 for a way never filled, so that a
// hit scan reads one contiguous row and nothing else — and one order word
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
// Where the rows live is fixed by the geometry at construction. A cache
// whose ways span less than 64 KB — the L1s and the DSB, which take nearly
// every lookup — is dense: keys is set-major (keys[set*ways+way]), 8 bytes
// a key whose tag is the whole block, and order has one word per set. One
// whose ways span 64 KB or more — every L2 and LLC, megabytes of which a
// run touches a few percent — is sparse: rowOf names, per set, the row that
// holds its order word and its filled ways' 4-byte keys, 0 for a set never
// touched. A row is sized to what its set has filled: it comes from one of
// the classes of 2, 4, 8 and ways keys (capped at ways), and way w's key is
// at index ways-1-w, so by the fill-order invariant the filled ways are a
// prefix of the row and a miss in a set that is not full takes the first
// index past it. A set starts in the smallest class; when that index
// reaches its row's capacity, its keys and order word move to a row of the
// next class and the old row goes on its class's free list for the next
// set that needs one. Each class hands rows out of chunks that are never
// copied or moved and survive reset, so a cache costs its set index plus
// the rows it has ever used. A sparse key's tag is block>>setBits, below
// 2^31 for every address below 2^47; sparseKey panics on one that is not,
// so no two lines share a key. Both kinds move a way to the front with
// promote and take a victim with evict.
type cache struct {
	geom  CacheGeom
	keys  []uint64 // dense: sets × ways
	order []uint64 // dense: per set

	rowOf   []uint32   // sparse: per set, (row number + 1)<<classBits | class, 0 for none
	classes []rowClass // sparse: the row classes, smallest first

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

// rowClass is the rows of a sparse cache that hold size keys each.
type rowClass struct {
	size   uint64
	chunks []sparseChunk // chunkRows rows each
	used   uint32        // rows handed out fresh since the last reset
	// free is one more than the first row given back since the last reset,
	// 0 for none; a free row's order word holds the next the same way.
	free uint32
}

// sparseChunk is chunkRows rows of one class: row i's order word is
// order[i] and its keys are keys[i*size:(i+1)*size].
type sparseChunk struct {
	order []uint64
	keys  []uint32
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
	case g.sparse() && g.Sets() > maxSparseSets:
		return fmt.Sprintf("%d B of %d-way sets of %d B lines is %d sets, more than the %d a sparse cache's rows can number",
			g.SizeBytes, g.Ways, g.LineBytes, g.Sets(), maxSparseSets)
	}
	return ""
}

// sparse reports whether a cache of geometry g keeps sparse rows: whether
// one way spans sparseWayBytes or more.
func (g CacheGeom) sparse() bool { return g.Sets()*g.LineBytes >= sparseWayBytes }

// newCache builds a cache of geometry g: sparse when a way spans
// sparseWayBytes or more, dense otherwise.
func newCache(g CacheGeom) *cache {
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
	if g.sparse() {
		c.rowOf = make([]uint32, sets)
		for size := uint64(2); ; size *= 2 {
			size = min(size, c.ways)
			c.classes = append(c.classes, rowClass{size: size})
			if size == c.ways {
				break
			}
		}
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
		geom: c.geom, keys: c.keys, order: c.order, rowOf: c.rowOf, classes: c.classes,
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
// rows it keeps out again, each cleared as it is taken.
func (c *cache) reset() {
	clear(c.keys)
	clear(c.rowOf)
	for i := range c.classes {
		c.classes[i].used, c.classes[i].free = 0, 0
	}
	c.arm()
}

// sparseKey is the key of block in a sparse cache. It panics on a block
// whose tag has more than 31 bits, which only an address of 2^47 or more
// has: cut to a 4-byte key, it would alias a line of another address.
func (c *cache) sparseKey(block uint64) uint32 {
	tag := block >> c.setBits
	if tag >= tagLimit {
		panic(fmt.Sprintf("uarch: cache: address %#x is past 2^%d: its tag in a %d B %d-way cache does not fit a 4-byte key",
			block<<c.lineBits, addrBits, c.geom.SizeBytes, c.geom.Ways))
	}
	return uint32(tag<<1 | 1)
}

// sparseRow returns the keys and the order word of set's row, or nil for a
// set that has none.
func (c *cache) sparseRow(set uint64) ([]uint32, *uint64) {
	id := c.rowOf[set]
	if id == 0 {
		return nil, nil
	}
	cl := &c.classes[id&(numClasses-1)]
	r := uint64(id>>classBits - 1)
	ch := &cl.chunks[r>>chunkBits]
	i := r & (chunkRows - 1)
	return ch.keys[i*cl.size : (i+1)*cl.size], &ch.order[i]
}

// takeRow gives set an empty row of class k, from the class's free list or
// its next unused row, and returns it: the keys cleared, since a row kept
// across a reset or given back by a set that grew still holds that set's,
// and the order word for the caller to set.
func (c *cache) takeRow(set uint64, k int) ([]uint32, *uint64) {
	cl := &c.classes[k]
	var r uint32
	if cl.free != 0 {
		r = cl.free - 1
	} else {
		if int(cl.used>>chunkBits) == len(cl.chunks) {
			cl.chunks = append(cl.chunks, sparseChunk{
				order: make([]uint64, chunkRows),
				keys:  make([]uint32, chunkRows*cl.size),
			})
		}
		r = cl.used
		cl.used++
	}
	ch := &cl.chunks[r>>chunkBits]
	i := uint64(r & (chunkRows - 1))
	if cl.free != 0 {
		cl.free = uint32(ch.order[i])
	}
	c.rowOf[set] = (r+1)<<classBits | uint32(k)
	keys := ch.keys[i*cl.size : (i+1)*cl.size]
	clear(keys)
	return keys, &ch.order[i]
}

// grow moves set's row, whose keys are full, to a row of the next class
// and gives the old one back to its class's free list. It returns the new
// row's keys.
func (c *cache) grow(set uint64, keys []uint32, order *uint64) []uint32 {
	id := c.rowOf[set]
	k := int(id & (numClasses - 1))
	bigger, ord := c.takeRow(set, k+1)
	copy(bigger, keys)
	*ord = *order
	cl := &c.classes[k]
	*order = uint64(cl.free)
	cl.free = id >> classBits
	return bigger
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
	set := block & c.setMask
	if c.rowOf != nil {
		return c.lookupSparse(set, c.sparseKey(block))
	}
	row, key := c.keys[set*c.ways:(set+1)*c.ways], block<<1|1
	// No early exit: at most one way matches, and a fixed-length scan
	// compiles to conditional moves, where leaving at the (unpredictable)
	// hit way would be a mispredicted branch.
	way := -1
	for i, k := range row {
		if k == key {
			way = i
		}
	}
	order := &c.order[set]
	if way >= 0 {
		*order = promote(*order, way)
		return true
	}
	victim := c.evict(order)
	if old := row[victim]; old == 0 {
		c.resident++
	} else {
		c.evictedTag, c.evictedOK = old>>1>>c.setBits, true
	}
	row[victim] = key
	return false
}

// lookupSparse is lookup in a sparse cache's set, key being sparseKey's.
// Way w's key is at index ways-1-w of the set's row.
func (c *cache) lookupSparse(set uint64, key uint32) bool {
	row, order := c.sparseRow(set)
	if row == nil {
		row, order = c.takeRow(set, 0)
		*order = c.initial
	}
	at := -1
	for i, k := range row {
		if k == key {
			at = i
		}
	}
	if at >= 0 {
		*order = promote(*order, int(c.ways)-1-at)
		return true
	}
	at = int(c.ways - 1 - c.evict(order))
	if at == len(row) {
		// The set is not full and its row is: the victim, the last unfilled
		// way, is the first key past the row.
		row = c.grow(set, row, order)
	}
	if old := row[at]; old == 0 {
		c.resident++
	} else {
		c.evictedTag, c.evictedOK = uint64(old>>1), true
	}
	row[at] = key
	return false
}

// promote returns the order word ord with way moved to the front and the
// ways that were ahead of it shifted back one.
func promote(ord uint64, way int) uint64 {
	// Find way's nibble: the lowest zero nibble of x (one above the set's
	// ways is zero only for way 0, whose own nibble is lower). Move it to
	// the front, shifting the nibbles below it up.
	x := ord ^ uint64(way)*eachNibble
	pos := uint(bits.TrailingZeros64((x-eachNibble)&^x&(eachNibble<<3))) - 3
	below := uint64(1)<<pos - 1
	return ord&^(below|0xF<<pos) | ord&below<<4 | uint64(way)
}

// evict counts a miss in the set of order word *order, moves its least
// recently used way to the front and returns that way, the victim.
func (c *cache) evict(order *uint64) uint64 {
	c.Misses++
	ord := *order
	back := uint(c.ways-1) * 4
	victim := ord >> back
	*order = ord&^(0xF<<back)<<4 | victim
	return victim
}

// probe reports whether addr is resident without updating state.
func (c *cache) probe(addr uint64) bool {
	block := addr >> c.lineBits
	set := block & c.setMask
	if c.rowOf != nil {
		row, _ := c.sparseRow(set)
		return slices.Contains(row, c.sparseKey(block))
	}
	return slices.Contains(c.keys[set*c.ways:(set+1)*c.ways], block<<1|1)
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
