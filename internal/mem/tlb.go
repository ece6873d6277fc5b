package mem

import (
	"gem5prof/internal/lruidx"
	"gem5prof/internal/sim"
)

// TLBConfig sets the geometry of a guest translation lookaside buffer.
type TLBConfig struct {
	Name string
	// Entries is the fully-associative entry count.
	Entries int
	// PageBytes is the guest page size (must be a power of two).
	PageBytes uint32
	// MissLatency models the table-walk cost charged on a miss.
	MissLatency sim.Tick
}

// TLB sits in front of a cache port and charges translation latency. The
// g5 guest uses identity mapping (physical == virtual), so the TLB models
// only the *timing* of translation, mirroring how the classic gem5 memory
// system charges TLB latency independently of the page-table contents.
//
// Replacement is exact LRU via an O(1) lruidx.Index rather than the
// original O(entries) scan; TestTLBDifferential pins the two to the same
// hit/miss and victim sequence.
type TLB struct {
	sys  *sim.System
	cfg  TLBConfig
	next Port

	idx *lruidx.Index

	fnLookup sim.FuncID
	nameWalk string

	// translations counts every lookup; since lookups resolve
	// synchronously, hits + misses == translations always holds — the
	// conformance invariant walker checks it.
	translations *sim.Counter
	hits         *sim.Counter
	misses       *sim.Counter
}

// NewTLB builds a TLB in front of next.
func NewTLB(sys *sim.System, cfg TLBConfig, next Port) *TLB {
	if cfg.Entries <= 0 || cfg.PageBytes == 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		panic("mem: bad TLB config")
	}
	if next == nil {
		panic("mem: TLB needs a downstream port")
	}
	t := &TLB{sys: sys, cfg: cfg, next: next, idx: lruidx.New(cfg.Entries)}
	t.fnLookup = sys.Tracer().RegisterFunc(cfg.Name+"::translateTiming", 1900, sim.FuncVirtual)
	t.nameWalk = cfg.Name + ".walk"
	st := sys.Stats()
	t.translations = st.Counter(cfg.Name+".translations", "address translations requested")
	t.hits = st.Counter(cfg.Name+".hits", "TLB hits")
	t.misses = st.Counter(cfg.Name+".misses", "TLB misses (table walks)")
	sys.Register(t)
	return t
}

// Name implements sim.SimObject.
func (t *TLB) Name() string { return t.cfg.Name }

// Hits returns the hit count.
func (t *TLB) Hits() uint64 { return t.hits.Count() }

// Misses returns the miss (walk) count.
func (t *TLB) Misses() uint64 { return t.misses.Count() }

// MissRate returns misses / lookups.
func (t *TLB) MissRate() float64 {
	total := t.hits.Count() + t.misses.Count()
	if total == 0 {
		return 0
	}
	return float64(t.misses.Count()) / float64(total)
}

// lookup probes and fills the entry file; returns true on hit.
func (t *TLB) lookup(addr uint32) bool {
	t.sys.TraceCall(t.fnLookup)
	t.translations.Inc()
	page := uint64(addr / t.cfg.PageBytes)
	if slot, ok := t.idx.Lookup(page); ok {
		t.idx.Touch(slot)
		t.hits.Inc()
		return true
	}
	t.misses.Inc()
	t.idx.Insert(page)
	return false
}

// AtomicLatency implements Port.
func (t *TLB) AtomicLatency(acc Access) sim.Tick {
	extra := sim.Tick(0)
	if !t.lookup(acc.Addr) {
		extra = t.cfg.MissLatency
	}
	return extra + t.next.AtomicLatency(acc)
}

// SendTiming implements Port.
func (t *TLB) SendTiming(acc Access, done func()) {
	if t.lookup(acc.Addr) {
		t.next.SendTiming(acc, done)
		return
	}
	// Table walk, then the access proceeds.
	t.sys.OneShot(t.nameWalk, t.fnLookup, sim.DomainCPU, t.cfg.MissLatency, func() {
		t.next.SendTiming(acc, done)
	})
}
