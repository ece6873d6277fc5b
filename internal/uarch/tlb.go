package uarch

import "gem5prof/internal/lruidx"

// tlb is a fully-associative exact-LRU TLB keyed by page base address.
//
// The lruidx.Index gives the observable behaviour of a linear scan over an
// entry file (hit iff resident, victim is always the exact LRU page) in
// O(1), which the 1.5k-entry STLB needs; TestTLBDifferential proves
// hit-for-hit and victim-for-victim equality against such a scan. Most
// accesses repeat the previous page (consecutive fetch blocks, the hot
// stack); lastPage answers those without hashing, exactly, because that
// page is resident and already the MRU entry.
type tlb struct {
	idx      *lruidx.Index
	lastPage uint64 // page of the previous access; all ones (no page's base) before it
	Accesses uint64
	Misses   uint64

	// evictedPage/evictedOK record the most recent eviction; written only
	// on the eviction path, read by the differential tests.
	evictedPage uint64
	evictedOK   bool
}

func newTLB(entries int) *tlb {
	if entries <= 0 {
		panic("uarch: TLB needs entries")
	}
	return &tlb{idx: lruidx.New(entries), lastPage: ^uint64(0)}
}

// reset empties the TLB in place, back to what newTLB returned.
func (t *tlb) reset() {
	t.idx.Reset()
	*t = tlb{idx: t.idx, lastPage: ^uint64(0)}
}

// access looks up a page number, filling on miss; returns true on hit. It
// is small enough to inline, so a same-page repeat costs its caller one
// compare.
func (t *tlb) access(page uint64) bool {
	t.Accesses++
	return page == t.lastPage || t.lookup(page)
}

// lookup is access past the memo.
func (t *tlb) lookup(page uint64) bool {
	t.lastPage = page
	if slot, ok := t.idx.Lookup(page); ok {
		t.idx.Touch(slot)
		return true
	}
	t.Misses++
	if _, ev, wasEvict := t.idx.Insert(page); wasEvict {
		t.evictedPage, t.evictedOK = ev, true
	}
	return false
}

// MissRate returns misses/accesses.
func (t *tlb) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
