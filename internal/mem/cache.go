package mem

import (
	"fmt"
	"math/bits"

	"gem5prof/internal/sim"
)

// CacheConfig sets the geometry and timing of one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  uint32
	Ways       int
	BlockBytes uint32
	// HitLatency is charged on the request path for every lookup.
	HitLatency sim.Tick
	// ResponseLatency is charged on the fill path of a miss.
	ResponseLatency sim.Tick
	// MSHRs bounds outstanding distinct misses; further misses queue.
	MSHRs int
	// NextLine enables a next-line prefetcher on misses.
	NextLine bool
	// Stride enables a constant-stride prefetcher (detects the demand
	// stream's block stride and runs one block ahead). Mutually exclusive
	// with NextLine.
	Stride bool
}

func (c *CacheConfig) validate() {
	switch {
	case c.SizeBytes == 0 || c.Ways <= 0 || c.BlockBytes == 0:
		panic(fmt.Sprintf("mem: cache %s: zero geometry", c.Name))
	case c.BlockBytes&(c.BlockBytes-1) != 0:
		panic(fmt.Sprintf("mem: cache %s: block size not a power of two", c.Name))
	case c.SizeBytes%(uint32(c.Ways)*c.BlockBytes) != 0:
		panic(fmt.Sprintf("mem: cache %s: size %d not divisible by ways*block", c.Name, c.SizeBytes))
	case c.MSHRs <= 0:
		panic(fmt.Sprintf("mem: cache %s: need at least one MSHR", c.Name))
	case c.NextLine && c.Stride:
		panic(fmt.Sprintf("mem: cache %s: NextLine and Stride are exclusive", c.Name))
	}
	sets := c.SizeBytes / (uint32(c.Ways) * c.BlockBytes)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %s: set count %d not a power of two", c.Name, sets))
	}
}

type cacheLine struct {
	tag   uint32
	valid bool
	dirty bool
	// excl is the coherence ownership bit: the line is held Exclusive or
	// Modified, so stores need no directory upgrade. Always false when the
	// cache has no coherence hooks attached.
	excl bool
	lru  uint64 // last-use sequence number
}

type mshr struct {
	blockAddr uint32
	write     bool // any coalesced writer
	waiters   []func()
	prefetch  bool
	// fillExcl records that the directory granted exclusive ownership for
	// the outstanding fetch, so the fill installs the line with excl set.
	fillExcl bool
	// dropInstall is set when the directory invalidates the block while the
	// fetch is still in flight: the fill completes its waiters but must not
	// install the (stale) line.
	dropInstall bool

	// fetch is sent downstream by forward and answered by filled. Both
	// callbacks capture only the cache and this mshr, so they are bound once
	// and survive the mshr's trips through Cache.freeMSHRs.
	fetch   Access
	forward func()
	filled  func()
}

type pendingReq struct {
	acc  Access
	done func()
}

// Cache is one level of a classic write-back, write-allocate cache with LRU
// replacement and a bounded MSHR file. The block/set shifts are computed
// once at construction, so the per-access path has no divisions. A private
// L1 keeps its lines in one contiguous set-major slice
// (lines[set*ways+way]). The shared L2 is a megabyte of which a guest touches
// a corner, and is row-indexed instead: rowOf holds, per set, one more than
// the number of its row of ways lines, 0 for a set nothing was installed in,
// and rows are taken from fixed-size chunks on a set's first fill. A chunk is
// never copied or moved, so a *cacheLine stays good either way.
type Cache struct {
	sys  *sim.System
	cfg  CacheConfig
	next Port

	// coh, when non-nil, makes the cache a coherent participant: line
	// installs and evictions are reported so a directory can track
	// presence, and stores to non-exclusive lines request an upgrade.
	coh CoherenceHooks
	// pendingExcl carries an exclusivity grant delivered during an atomic
	// miss, where no MSHR exists to hold fillExcl.
	pendingExcl bool

	lines      []cacheLine // dense: numSets × ways, set-major
	numSets    uint32
	ways       uint32
	blockShift uint
	setBits    uint
	lruSeq     uint64
	rowOf      []uint32      // row-indexed: per set, row number + 1
	chunks     [][]cacheLine // row-indexed: rowChunk rows of ways lines each
	rows       uint32        // row-indexed: rows handed out

	mshrs     map[uint32]*mshr
	freeMSHRs []*mshr // retired by handleFill, reused by allocMSHR
	pending   []pendingReq

	// Event names are per-access in the timing path; building them with
	// string concatenation there showed up as steady allocation traffic.
	nameHitResp string
	nameMissFwd string
	nameFill    string

	// Stride-prefetcher state: last demand block, last delta, confidence.
	strideLast  uint32
	strideDelta int32
	strideConf  int

	// Host model attribution.
	fnAccess    sim.FuncID
	fnFill      sim.FuncID
	fnWriteback sim.FuncID
	tagHostBase uint64

	// Statistics. Every demand access entering the cache increments
	// accesses exactly once, and is resolved by exactly one of hits,
	// misses, or mshrHits — the conformance invariant walker checks
	// hits+misses+mshrHits == accesses on drained systems (<= otherwise,
	// since MSHR-full accesses park in pending unresolved).
	accesses   *sim.Counter
	hits       *sim.Counter
	misses     *sim.Counter
	mshrHits   *sim.Counter
	writebacks *sim.Counter
	prefetches *sim.Counter
}

// rowChunk is how many rows a row-indexed cache allocates at a time (4 KB of
// the default L2's).
const (
	rowChunkBits = 5
	rowChunk     = 1 << rowChunkBits
)

// NewCache builds a cache in sys that forwards misses to next.
func NewCache(sys *sim.System, cfg CacheConfig, next Port) *Cache {
	return newCache(sys, cfg, next, false)
}

// newCache is NewCache for either line store; the hierarchies, which know
// which level they are building, ask for a row-indexed L2.
func newCache(sys *sim.System, cfg CacheConfig, next Port, rowIndexed bool) *Cache {
	cfg.validate()
	if next == nil {
		panic("mem: cache needs a downstream port")
	}
	numSets := cfg.SizeBytes / (uint32(cfg.Ways) * cfg.BlockBytes)
	c := &Cache{
		sys:         sys,
		cfg:         cfg,
		next:        next,
		numSets:     numSets,
		ways:        uint32(cfg.Ways),
		blockShift:  uint(bits.TrailingZeros32(cfg.BlockBytes)),
		setBits:     uint(bits.TrailingZeros32(numSets)),
		mshrs:       make(map[uint32]*mshr),
		nameHitResp: cfg.Name + ".hitResp",
		nameMissFwd: cfg.Name + ".missFwd",
		nameFill:    cfg.Name + ".fillResp",
	}
	if rowIndexed {
		c.rowOf = make([]uint32, numSets)
	} else {
		c.lines = make([]cacheLine, numSets*c.ways)
	}
	tr := sys.Tracer()
	c.fnAccess = tr.RegisterFunc(cfg.Name+"::access", 1400, sim.FuncVirtual|sim.FuncHot)
	c.fnFill = tr.RegisterFunc(cfg.Name+"::handleFill", 1100, sim.FuncVirtual)
	c.fnWriteback = tr.RegisterFunc(cfg.Name+"::writebackBlk", 700, sim.FuncVirtual)
	c.tagHostBase = tr.AllocData(cfg.Name+".tags", uint64(numSets)*uint64(cfg.Ways)*16)
	st := sys.Stats()
	c.accesses = st.Counter(cfg.Name+".accesses", "demand accesses entering the cache")
	c.hits = st.Counter(cfg.Name+".hits", "demand hits")
	c.misses = st.Counter(cfg.Name+".misses", "demand misses")
	c.mshrHits = st.Counter(cfg.Name+".mshrHits", "misses coalesced into an MSHR")
	c.writebacks = st.Counter(cfg.Name+".writebacks", "dirty blocks written back")
	c.prefetches = st.Counter(cfg.Name+".prefetches", "prefetch fills issued")
	sys.Register(c)
	return c
}

// Name implements sim.SimObject.
func (c *Cache) Name() string { return c.cfg.Name }

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Hits returns the demand hit count.
func (c *Cache) Hits() uint64 { return c.hits.Count() }

// Misses returns the demand miss count.
func (c *Cache) Misses() uint64 { return c.misses.Count() }

// Writebacks returns the dirty eviction count.
func (c *Cache) Writebacks() uint64 { return c.writebacks.Count() }

// MissRate returns misses / (hits+misses), or 0 with no traffic.
func (c *Cache) MissRate() float64 {
	total := c.hits.Count() + c.misses.Count()
	if total == 0 {
		return 0
	}
	return float64(c.misses.Count()) / float64(total)
}

func (c *Cache) index(addr uint32) (set uint32, tag uint32) {
	blockNum := addr >> c.blockShift
	return blockNum & (c.numSets - 1), blockNum >> c.setBits
}

// set returns the contiguous line window of one set; for a row-indexed set
// nothing was installed in, that is the empty window. It stays small enough
// to inline, so that an L1 lookup pays one compare for the L2's index.
func (c *Cache) set(set uint32) []cacheLine {
	if c.rowOf != nil {
		return c.row(set, false)
	}
	return c.lines[set*c.ways:][:c.ways]
}

// row is set for a row-indexed cache; with take, a set that has no row gets
// one of invalid lines.
func (c *Cache) row(set uint32, take bool) []cacheLine {
	r := c.rowOf[set]
	if r == 0 {
		if !take {
			return nil
		}
		if int(c.rows>>rowChunkBits) == len(c.chunks) {
			c.chunks = append(c.chunks, make([]cacheLine, rowChunk*c.ways))
		}
		c.rows++
		r = c.rows
		c.rowOf[set] = r
	}
	base := (r - 1) & (rowChunk - 1) * c.ways
	lines := c.chunks[(r-1)>>rowChunkBits]
	return lines[base : base+c.ways]
}

// lookup returns the line holding addr, or nil.
func (c *Cache) lookup(addr uint32) *cacheLine {
	set, tag := c.index(addr)
	lines := c.set(set)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			return &lines[i]
		}
	}
	return nil
}

// touch marks a line most-recently-used.
func (c *Cache) touch(l *cacheLine) {
	c.lruSeq++
	l.lru = c.lruSeq
}

// victim returns the LRU line of addr's set, preferring invalid lines.
func (c *Cache) victim(addr uint32) *cacheLine {
	set, _ := c.index(addr)
	lines := c.set(set)
	if lines == nil {
		lines = c.row(set, true)
	}
	best := &lines[0]
	for i := range lines {
		l := &lines[i]
		if !l.valid {
			return l
		}
		if l.lru < best.lru {
			best = l
		}
	}
	return best
}

// traceTagProbe models the host-side tag array read for one lookup. Callers
// check Tracing first, so an untraced lookup computes no set index for it.
func (c *Cache) traceTagProbe(addr uint32) {
	set, _ := c.index(addr)
	c.sys.TraceData(c.tagHostBase+uint64(set)*uint64(c.cfg.Ways)*16, 16, false)
}

// fill installs addr's block, evicting the LRU victim. Dirty victims are
// written back downstream. mode distinguishes timing from atomic traffic.
// excl installs the line with coherence ownership.
func (c *Cache) fill(addr uint32, dirty bool, atomic bool, excl bool) (wbLatency sim.Tick) {
	v := c.victim(addr)
	set, _ := c.index(addr)
	if v.valid && c.coh != nil {
		c.coh.OnEvict((v.tag<<c.setBits|set)<<c.blockShift, v.dirty)
	}
	if v.valid && v.dirty {
		c.writebacks.Inc()
		c.sys.TraceCall(c.fnWriteback)
		wb := Access{
			Addr:  (v.tag<<c.setBits | set) << c.blockShift,
			Size:  uint8(c.cfg.BlockBytes),
			Write: true,
		}
		if atomic {
			wbLatency = c.next.AtomicLatency(wb)
		} else {
			c.next.SendTiming(wb, nil)
		}
	}
	_, tag := c.index(addr)
	v.tag = tag
	v.valid = true
	v.dirty = dirty
	v.excl = excl || dirty
	c.touch(v)
	c.sys.TraceCall(c.fnFill)
	if c.coh != nil {
		c.coh.OnFill(blockAlign(addr, c.cfg.BlockBytes), v.excl)
	}
	return wbLatency
}

// Accesses returns the demand access count.
func (c *Cache) Accesses() uint64 { return c.accesses.Count() }

// AtomicLatency implements Port.
func (c *Cache) AtomicLatency(acc Access) sim.Tick {
	c.accesses.Inc()
	c.sys.TraceCall(c.fnAccess)
	if c.sys.Tracing() {
		c.traceTagProbe(acc.Addr)
	}
	if l := c.lookup(acc.Addr); l != nil {
		c.hits.Inc()
		c.touch(l)
		lat := c.cfg.HitLatency
		if acc.Write {
			if c.coh != nil && !l.excl {
				lat += c.coh.OnWriteHit(blockAlign(acc.Addr, c.cfg.BlockBytes), true)
				l.excl = true
			}
			l.dirty = true
		}
		return lat
	}
	c.misses.Inc()
	lat := c.cfg.HitLatency
	fetch := Access{Addr: blockAlign(acc.Addr, c.cfg.BlockBytes), Size: uint8(c.cfg.BlockBytes), Inst: acc.Inst, Excl: acc.Write}
	c.pendingExcl = false
	lat += c.next.AtomicLatency(fetch)
	excl := c.pendingExcl
	c.pendingExcl = false
	lat += c.fill(acc.Addr, acc.Write, true, excl)
	lat += c.cfg.ResponseLatency
	return lat
}

// SendTiming implements Port.
func (c *Cache) SendTiming(acc Access, done func()) {
	c.accesses.Inc()
	c.sendTiming(acc, done)
}

// sendTiming is the access path shared by fresh demand accesses and
// MSHR-freed re-probes; only the former count toward the accesses stat.
func (c *Cache) sendTiming(acc Access, done func()) {
	c.sys.TraceCall(c.fnAccess)
	if c.sys.Tracing() {
		c.traceTagProbe(acc.Addr)
	}
	if done == nil {
		done = func() {}
	}
	if l := c.lookup(acc.Addr); l != nil {
		c.hits.Inc()
		c.touch(l)
		lat := c.cfg.HitLatency
		if acc.Write {
			if c.coh != nil && !l.excl {
				// Store to a Shared line: upgrade through the directory.
				// The invalidation round trip is charged as a surcharge on
				// this hit's response.
				lat += c.coh.OnWriteHit(blockAlign(acc.Addr, c.cfg.BlockBytes), false)
				l.excl = true
			}
			l.dirty = true
		}
		c.sys.OneShot(c.nameHitResp, c.fnAccess, sim.DomainCPU, lat, done)
		return
	}
	c.startMiss(acc, done)
}

func (c *Cache) startMiss(acc Access, done func()) {
	block := blockAlign(acc.Addr, c.cfg.BlockBytes)
	if m, ok := c.mshrs[block]; ok {
		// Coalesce into the outstanding miss. Each coalesced access
		// resolves as exactly one of mshrHits or misses: a demand access
		// hitting a prefetch MSHR promotes it and counts as the demand
		// miss the prefetch hid.
		m.write = m.write || acc.Write
		m.waiters = append(m.waiters, done)
		if m.prefetch {
			m.prefetch = false
			c.misses.Inc()
		} else {
			c.mshrHits.Inc()
		}
		return
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		// MSHR file full: queue until one frees.
		c.pending = append(c.pending, pendingReq{acc: acc, done: done})
		return
	}
	c.misses.Inc()
	c.allocMSHR(acc, done, false)
}

func (c *Cache) allocMSHR(acc Access, done func(), prefetch bool) {
	block := blockAlign(acc.Addr, c.cfg.BlockBytes)
	var m *mshr
	if n := len(c.freeMSHRs); n > 0 {
		m = c.freeMSHRs[n-1]
		c.freeMSHRs = c.freeMSHRs[:n-1]
	} else {
		m = &mshr{}
		m.filled = func() { c.handleFill(m) }
		m.forward = func() { c.next.SendTiming(m.fetch, m.filled) }
	}
	m.blockAddr, m.write, m.prefetch = block, acc.Write, prefetch
	if done != nil {
		m.waiters = append(m.waiters, done)
	}
	c.mshrs[block] = m
	m.fetch = Access{Addr: block, Size: uint8(c.cfg.BlockBytes), Inst: acc.Inst, Excl: acc.Write}
	c.sys.OneShot(c.nameMissFwd, c.fnAccess, sim.DomainCPU, c.cfg.HitLatency, m.forward)
	if !prefetch {
		switch {
		case c.cfg.NextLine:
			c.maybePrefetch(block+c.cfg.BlockBytes, acc.Inst)
		case c.cfg.Stride:
			if target, ok := c.observeStride(block); ok {
				c.maybePrefetch(target, acc.Inst)
			}
		}
	}
}

// observeStride trains the stride detector on a demand miss block and
// returns a prefetch target once the stride repeats.
func (c *Cache) observeStride(block uint32) (uint32, bool) {
	delta := int32(block) - int32(c.strideLast)
	if delta != 0 && delta == c.strideDelta {
		if c.strideConf < 4 {
			c.strideConf++
		}
	} else {
		c.strideDelta = delta
		c.strideConf = 0
	}
	c.strideLast = block
	if c.strideConf >= 1 {
		return uint32(int32(block) + c.strideDelta), true
	}
	return 0, false
}

// maybePrefetch issues a next-line prefetch when the block is absent and an
// MSHR is available.
func (c *Cache) maybePrefetch(addr uint32, inst bool) {
	if c.lookup(addr) != nil {
		return
	}
	block := blockAlign(addr, c.cfg.BlockBytes)
	if _, ok := c.mshrs[block]; ok {
		return
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		return
	}
	c.prefetches.Inc()
	c.allocMSHR(Access{Addr: block, Size: uint8(c.cfg.BlockBytes), Inst: inst}, nil, true)
}

func (c *Cache) handleFill(m *mshr) {
	delete(c.mshrs, m.blockAddr)
	respLat := c.cfg.ResponseLatency
	switch {
	case m.dropInstall:
		// The directory invalidated the block mid-flight: complete the
		// waiters (data moved functionally at execute time) but do not
		// install the stale line.
		if c.coh != nil {
			c.coh.OnDropInstall(m.blockAddr)
		}
	default:
		if c.coh != nil && m.write && !m.fillExcl {
			// A store coalesced into a read fetch after it was forwarded
			// without write intent: upgrade before installing dirty.
			respLat += c.coh.OnWriteHit(m.blockAddr, false)
		}
		c.fill(m.blockAddr, m.write, false, m.fillExcl)
	}
	for i, w := range m.waiters {
		c.sys.OneShot(c.nameFill, c.fnFill, sim.DomainCPU, respLat, w)
		m.waiters[i] = nil
	}
	// Nothing refers to m any more: clear it for the next miss (which the
	// re-probe below may already be).
	m.waiters, m.fillExcl, m.dropInstall = m.waiters[:0], false, false
	c.freeMSHRs = append(c.freeMSHRs, m)
	// Service a queued request now that an MSHR is free. The re-probe
	// must not recount the access: it was counted when it first entered.
	if len(c.pending) > 0 && len(c.mshrs) < c.cfg.MSHRs {
		// Pop by copying down: re-slicing the head away strands the front of
		// the backing array, and a long MSHR-full phase keeps reallocating.
		p := c.pending[0]
		n := copy(c.pending, c.pending[1:])
		c.pending[n] = pendingReq{}
		c.pending = c.pending[:n]
		// Re-probe: the fill may have satisfied it.
		c.sendTiming(p.acc, p.done)
	}
}

// OutstandingMisses returns the number of allocated MSHRs (tests).
func (c *Cache) OutstandingMisses() int { return len(c.mshrs) }

// CoherenceHooks receives line-lifetime notifications from a coherent cache
// and answers its ownership upgrades. Implemented by the per-core ports of
// a Directory; a cache with no hooks attached behaves classically.
type CoherenceHooks interface {
	// OnFill reports that block was installed, with or without ownership.
	OnFill(block uint32, excl bool)
	// OnEvict reports that block left the cache (clean or dirty).
	OnEvict(block uint32, dirty bool)
	// OnWriteHit requests ownership for a store to a non-exclusive block
	// and returns the invalidation latency to charge the store. atomic
	// selects how forced writebacks at other cores travel downstream.
	OnWriteHit(block uint32, atomic bool) sim.Tick
	// OnDropInstall reports that an invalidated in-flight fetch completed
	// without installing.
	OnDropInstall(block uint32)
}

// AttachCoherence makes the cache a coherent participant reporting to h.
// Must be called before any traffic.
func (c *Cache) AttachCoherence(h CoherenceHooks) { c.coh = h }

// Invalidate removes block (block-aligned) from the cache on behalf of a
// coherence directory, writing a dirty copy back downstream. An outstanding
// fetch of the block is marked to complete without installing. It returns
// whether a valid line was actually dropped, and in atomic mode the
// writeback latency to charge the requester that forced the invalidation.
func (c *Cache) Invalidate(block uint32, atomic bool) (hadLine bool, lat sim.Tick) {
	if m, ok := c.mshrs[block]; ok {
		m.dropInstall = true
		m.fillExcl = false
	}
	l := c.lookup(block)
	if l == nil {
		return false, 0
	}
	if l.dirty {
		lat = c.writebackFor(block, atomic)
	}
	l.valid, l.dirty, l.excl = false, false, false
	return true, lat
}

// Downgrade strips ownership of block (block-aligned) so another core can
// share it, writing a dirty copy back downstream. It returns whether the
// cache actually held the block exclusively.
func (c *Cache) Downgrade(block uint32, atomic bool) (hadExcl bool, lat sim.Tick) {
	if m, ok := c.mshrs[block]; ok && m.fillExcl {
		m.fillExcl = false
		hadExcl = true
	}
	l := c.lookup(block)
	if l == nil {
		return hadExcl, 0
	}
	hadExcl = hadExcl || l.excl
	if l.dirty {
		lat = c.writebackFor(block, atomic)
		l.dirty = false
	}
	l.excl = false
	return hadExcl, lat
}

// GrantExclusive records a directory's ownership grant for the fetch of
// block currently in flight (timing: its MSHR; atomic: the synchronous
// miss in progress).
func (c *Cache) GrantExclusive(block uint32) {
	if m, ok := c.mshrs[block]; ok {
		m.fillExcl = true
		return
	}
	c.pendingExcl = true
}

// VisitLines calls f for every valid line, in storage (set-then-way) order,
// reporting its block address and coherence state. The conformance audits
// use it to cross-check the cache contents against the directory.
func (c *Cache) VisitLines(f func(block uint32, dirty, excl bool)) {
	for set := uint32(0); set < c.numSets; set++ {
		for _, l := range c.set(set) {
			if l.valid {
				f((l.tag<<c.setBits|set)<<c.blockShift, l.dirty, l.excl)
			}
		}
	}
}

// writebackFor pushes one full block downstream as a coherence-forced
// writeback and returns its latency in atomic mode.
func (c *Cache) writebackFor(block uint32, atomic bool) sim.Tick {
	c.writebacks.Inc()
	c.sys.TraceCall(c.fnWriteback)
	wb := Access{Addr: block, Size: uint8(c.cfg.BlockBytes), Write: true}
	if atomic {
		return c.next.AtomicLatency(wb)
	}
	c.next.SendTiming(wb, nil)
	return 0
}
