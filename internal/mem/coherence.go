package mem

import (
	"fmt"
	"sort"

	"gem5prof/internal/sim"
)

// DirectoryConfig sets the timing of the MESI directory controller.
type DirectoryConfig struct {
	Name string
	// LookupLatency is charged on every miss fetch passing the directory
	// before it is forwarded to the shared level below.
	LookupLatency sim.Tick
	// InvalidateLatency is charged per sharer invalidated or owner
	// downgraded, on the requester that forced the transition.
	InvalidateLatency sim.Tick
}

func (c *DirectoryConfig) validate() {
	if c.Name == "" {
		panic("mem: directory needs a name")
	}
}

// dirEntry is the directory's view of one block: which L1s hold it, whether
// one of them owns it exclusively, and the in-flight serialization state.
type dirEntry struct {
	// exclusive marks the block owned (MESI E or M) by the sole sharer.
	// The directory does not distinguish E from M: the owner writes back
	// on downgrade/invalidation if it actually dirtied the line.
	exclusive bool
	// sharers is the presence bitmask over cores, maintained at install
	// time (OnFill) and cleared on eviction or invalidation.
	sharers uint64
	// busy blocks the entry while a miss fetch for it is outstanding
	// below; conflicting fetches queue in waiting and are serviced FIFO.
	busy    bool
	waiting []dirWaiting
}

type dirWaiting struct {
	core int
	acc  Access
	done func()
}

// Directory is a blocking MESI-style directory controller sitting between
// the per-core L1 data caches and the shared level below (L2). Miss fetches
// carry write intent in Access.Excl; the directory invalidates or downgrades
// other cores' copies before forwarding the fetch, and grants exclusive
// ownership back through Cache.GrantExclusive. Presence is tracked when the
// requesting cache actually installs the line (Cache fill → OnFill), so the
// bitmask never claims a copy that an in-flight invalidation dropped.
//
// The instruction caches bypass the directory: KISA code is read-only, and
// data moves functionally at execute time, so instruction-side staleness
// cannot arise. Like the rest of the package, the directory models only
// *when* coherence traffic completes — single-writer/multiple-reader is
// enforced on the timing state (line excl/dirty bits), not on data.
type Directory struct {
	sys    *sim.System
	cfg    DirectoryConfig
	next   Port
	caches []*Cache
	ports  []*dirPort

	entries    map[uint32]*dirEntry
	blockBytes uint32

	nameFwd  string
	fnLookup sim.FuncID

	// Transition counters. Every forwarded fetch (getS+getM) ends as
	// exactly one install (a presence in sharers until putS/putM/inval) or
	// one dropped install, so on a drained system
	//   getS + getM == putS + putM + invals + dropped + tracked
	// which conformance.CheckStats verifies.
	getS       *sim.Counter
	getM       *sim.Counter
	putS       *sim.Counter
	putM       *sim.Counter
	invals     *sim.Counter
	downgrades *sim.Counter
	upgrades   *sim.Counter
	dropped    *sim.Counter
}

// NewDirectory builds a directory for n cores in front of next (the shared
// L2). Wire each core's L1D with the directory as its downstream port and
// register it with Attach:
//
//	dir := NewDirectory(sys, dcfg, l2, n)
//	l1d := NewCache(sys, l1cfg, dir.Port(i))
//	dir.Attach(i, l1d)
func NewDirectory(sys *sim.System, cfg DirectoryConfig, next Port, n int) *Directory {
	cfg.validate()
	if next == nil {
		panic("mem: directory needs a downstream port")
	}
	if n < 2 || n > 64 {
		panic(fmt.Sprintf("mem: directory %s: core count %d outside [2,64]", cfg.Name, n))
	}
	d := &Directory{
		sys:     sys,
		cfg:     cfg,
		next:    next,
		caches:  make([]*Cache, n),
		entries: make(map[uint32]*dirEntry),
		nameFwd: cfg.Name + ".fwd",
	}
	d.fnLookup = sys.Tracer().RegisterFunc(cfg.Name+"::lookup", 900, sim.FuncVirtual)
	st := sys.Stats()
	d.getS = st.Counter(cfg.Name+".getS", "read miss fetches through the directory")
	d.getM = st.Counter(cfg.Name+".getM", "write-intent miss fetches through the directory")
	d.putS = st.Counter(cfg.Name+".putS", "clean L1 evictions observed")
	d.putM = st.Counter(cfg.Name+".putM", "dirty L1 evictions observed")
	d.invals = st.Counter(cfg.Name+".invals", "sharer copies invalidated")
	d.downgrades = st.Counter(cfg.Name+".downgrades", "exclusive owners downgraded to shared")
	d.upgrades = st.Counter(cfg.Name+".upgrades", "stores upgraded from shared to exclusive")
	d.dropped = st.Counter(cfg.Name+".droppedFills", "in-flight fetches invalidated before install")
	st.Formula(cfg.Name+".tracked", "L1 copies currently tracked by the directory", d.trackedCopies)
	for i := 0; i < n; i++ {
		d.ports = append(d.ports, &dirPort{d: d, core: i})
	}
	sys.Register(d)
	return d
}

// Name implements sim.SimObject.
func (d *Directory) Name() string { return d.cfg.Name }

// Port returns core i's request port into the directory.
func (d *Directory) Port(i int) Port { return d.ports[i] }

// Attach registers core i's L1 data cache and hooks it to the directory.
func (d *Directory) Attach(i int, c *Cache) {
	if d.blockBytes == 0 {
		d.blockBytes = c.cfg.BlockBytes
	} else if d.blockBytes != c.cfg.BlockBytes {
		panic(fmt.Sprintf("mem: directory %s: mixed L1 block sizes", d.cfg.Name))
	}
	d.caches[i] = c
	c.AttachCoherence(d.ports[i])
}

// trackedCopies sums the presence bitmask population over all entries.
func (d *Directory) trackedCopies() float64 {
	var n int
	//lint:deterministic commutative popcount sum over all entries
	for _, e := range d.entries {
		n += popcount(e.sharers)
	}
	return float64(n)
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func (d *Directory) entry(block uint32) *dirEntry {
	e := d.entries[block]
	if e == nil {
		e = &dirEntry{}
		d.entries[block] = e
	}
	return e
}

// release drops entries that track nothing, bounding the map.
func (d *Directory) release(block uint32, e *dirEntry) {
	if !e.busy && len(e.waiting) == 0 && e.sharers == 0 {
		delete(d.entries, block)
	}
}

// process performs the state transitions for one miss fetch from core and
// returns the invalidation/downgrade latency to charge it. The caller has
// already serialized conflicting requests (timing: entry busy bit; atomic:
// everything is synchronous).
func (d *Directory) process(core int, acc Access, atomic bool) sim.Tick {
	e := d.entry(acc.Addr)
	var lat sim.Tick
	if acc.Excl {
		d.getM.Inc()
		// Take every other copy, including fetches still in flight (their
		// MSHR is marked to drop the install).
		lat += d.takeCopies(e, acc.Addr, core, atomic)
		e.exclusive = true
		d.caches[core].GrantExclusive(acc.Addr)
		return lat
	}
	d.getS.Inc()
	if e.exclusive {
		// Downgrade the owner so the block can be shared.
		for i, c := range d.caches {
			if i == core || e.sharers&(1<<uint(i)) == 0 {
				continue
			}
			if had, wb := c.Downgrade(acc.Addr, atomic); had {
				d.downgrades.Inc()
				lat += d.cfg.InvalidateLatency + wb
			}
		}
		e.exclusive = false
	}
	if e.sharers == 0 {
		// Sole reader: MESI E grant, silently upgradable.
		e.exclusive = true
		d.caches[core].GrantExclusive(acc.Addr)
	}
	return lat
}

// takeCopies invalidates block everywhere except at core: present lines are
// dropped (dirty ones written back), in-flight fetches are marked to skip
// their install. Returns the latency to charge the requester.
func (d *Directory) takeCopies(e *dirEntry, block uint32, core int, atomic bool) sim.Tick {
	var lat sim.Tick
	for i, c := range d.caches {
		if i == core {
			continue
		}
		had, wb := c.Invalidate(block, atomic)
		if had {
			d.invals.Inc()
			e.sharers &^= 1 << uint(i)
			lat += d.cfg.InvalidateLatency + wb
		}
	}
	return lat
}

// start runs one request through the directory: transitions now, forward
// the fetch after the lookup+invalidate latency, unblock the entry when the
// level below responds (by which time the requester has installed).
func (d *Directory) start(core int, acc Access, done func()) {
	d.sys.TraceCall(d.fnLookup)
	e := d.entry(acc.Addr)
	e.busy = true
	lat := d.cfg.LookupLatency + d.process(core, acc, false)
	d.sys.OneShot(d.nameFwd, d.fnLookup, lat, func() {
		d.next.SendTiming(acc, func() {
			e.busy = false
			done()
			d.drain(acc.Addr, e)
		})
	})
}

// drain services the next queued conflicting request, if any.
func (d *Directory) drain(block uint32, e *dirEntry) {
	if e.busy || len(e.waiting) == 0 {
		d.release(block, e)
		return
	}
	w := e.waiting[0]
	n := copy(e.waiting, e.waiting[1:]) // keep the backing array's head in use
	e.waiting[n] = dirWaiting{}
	e.waiting = e.waiting[:n]
	d.start(w.core, w.acc, w.done)
}

// onFill tracks the install of a granted fetch.
func (d *Directory) onFill(core int, block uint32, excl bool) {
	e := d.entry(block)
	e.sharers |= 1 << uint(core)
	if excl {
		e.exclusive = true
	}
}

// onEvict tracks a copy silently leaving an L1.
func (d *Directory) onEvict(core int, block uint32, dirty bool) {
	e := d.entries[block]
	if e == nil || e.sharers&(1<<uint(core)) == 0 {
		return
	}
	e.sharers &^= 1 << uint(core)
	if dirty {
		d.putM.Inc()
	} else {
		d.putS.Inc()
	}
	if e.sharers == 0 {
		e.exclusive = false
	}
	d.release(block, e)
}

// onDropInstall accounts a fetch whose install was invalidated mid-flight.
func (d *Directory) onDropInstall(block uint32) {
	d.dropped.Inc()
	if e := d.entries[block]; e != nil {
		d.release(block, e)
	}
}

// upgrade services a store hitting a Shared copy at core: every other copy
// is taken and the block becomes core's exclusively. Returns the latency to
// surcharge the store. Safe against a concurrent in-flight fetch: the
// fetcher's install is dropped and it re-misses, serializing after the
// upgrade.
func (d *Directory) upgrade(core int, block uint32, atomic bool) sim.Tick {
	d.sys.TraceCall(d.fnLookup)
	e := d.entry(block)
	d.upgrades.Inc()
	lat := d.takeCopies(e, block, core, atomic)
	e.exclusive = true
	return lat
}

// Audit verifies the structural coherence invariants against the live
// directory and cache state and returns a description of every violation:
// single-writer (an exclusive entry tracks at most one sharer; an exclusive
// or dirty L1 line is the sole tracked copy), dirty-implies-owned, and
// presence completeness in both directions (every valid L1 line has its
// directory bit set and every set bit has a line behind it). The invariants
// hold at any event boundary — presence moves atomically with the line —
// so the conformance suites call it after every run, and the fuzz target
// after every generated access script.
func (d *Directory) Audit() []string {
	var out []string
	blocks := make([]uint32, 0, len(d.entries))
	//lint:deterministic collected keys are sorted before use
	for b := range d.entries {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, b := range blocks {
		e := d.entries[b]
		if e.exclusive && popcount(e.sharers) > 1 {
			out = append(out, fmt.Sprintf(
				"%s: block %#x exclusive with %d sharers (mask %#x)",
				d.cfg.Name, b, popcount(e.sharers), e.sharers))
		}
		for i, c := range d.caches {
			if e.sharers&(1<<uint(i)) == 0 {
				continue
			}
			held := false
			c.VisitLines(func(block uint32, dirty, excl bool) {
				held = held || block == b
			})
			if !held {
				out = append(out, fmt.Sprintf(
					"%s: block %#x tracked at core %d (%s) but not cached there",
					d.cfg.Name, b, i, c.Name()))
			}
		}
	}
	for i, c := range d.caches {
		core := i
		c.VisitLines(func(block uint32, dirty, excl bool) {
			e := d.entries[block]
			if e == nil || e.sharers&(1<<uint(core)) == 0 {
				out = append(out, fmt.Sprintf(
					"%s: core %d (%s) caches block %#x the directory does not track",
					d.cfg.Name, core, c.Name(), block))
				return
			}
			if dirty && !excl {
				out = append(out, fmt.Sprintf(
					"%s: core %d (%s) holds block %#x dirty without ownership",
					d.cfg.Name, core, c.Name(), block))
			}
			if excl && (!e.exclusive || e.sharers != 1<<uint(core)) {
				out = append(out, fmt.Sprintf(
					"%s: core %d (%s) holds block %#x exclusive but the directory tracks mask %#x (exclusive=%v)",
					d.cfg.Name, core, c.Name(), block, e.sharers, e.exclusive))
			}
		})
	}
	return out
}

// dirPort is core i's request port: demand fetches go through the
// coherence machinery, write traffic (evictions and coherence-forced
// writebacks, already accounted by the hooks) is forwarded untouched. It
// doubles as the cache's CoherenceHooks endpoint so the directory knows
// which core each notification comes from.
type dirPort struct {
	d    *Directory
	core int
}

// SendTiming implements Port.
func (p *dirPort) SendTiming(acc Access, done func()) {
	if acc.Write {
		p.d.next.SendTiming(acc, done)
		return
	}
	e := p.d.entry(acc.Addr)
	if e.busy {
		e.waiting = append(e.waiting, dirWaiting{core: p.core, acc: acc, done: done})
		return
	}
	p.d.start(p.core, acc, done)
}

// AtomicLatency implements Port.
func (p *dirPort) AtomicLatency(acc Access) sim.Tick {
	if acc.Write {
		return p.d.next.AtomicLatency(acc)
	}
	p.d.sys.TraceCall(p.d.fnLookup)
	lat := p.d.cfg.LookupLatency + p.d.process(p.core, acc, true)
	return lat + p.d.next.AtomicLatency(acc)
}

// OnFill implements CoherenceHooks.
func (p *dirPort) OnFill(block uint32, excl bool) { p.d.onFill(p.core, block, excl) }

// OnEvict implements CoherenceHooks.
func (p *dirPort) OnEvict(block uint32, dirty bool) { p.d.onEvict(p.core, block, dirty) }

// OnWriteHit implements CoherenceHooks.
func (p *dirPort) OnWriteHit(block uint32, atomic bool) sim.Tick {
	return p.d.upgrade(p.core, block, atomic)
}

// OnDropInstall implements CoherenceHooks.
func (p *dirPort) OnDropInstall(block uint32) { p.d.onDropInstall(block) }
