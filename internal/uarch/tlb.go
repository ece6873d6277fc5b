package uarch

import (
	"sort"

	"gem5prof/internal/lruidx"
)

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
	idx       *lruidx.Index
	lastPage  uint64 // page of the previous access; all ones (no page's base) before it
	TLBCounts        // Walks is kept for a first-level TLB (see translation)

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

// translation is a translation unit: an address map and the iTLB, dTLB and
// STLB it feeds. The page an address lies in depends on the page sizes and
// the huge-page backing, so the TLBs' hits and victims do; and the STLB
// serves both first-level TLBs, so the four are one unit.
type translation struct {
	// The STLB backs the iTLB and the dTLB. A miss in both is a page walk,
	// which the Machine counts in the first-level TLB's Walks.
	itlb, dtlb, stlb *tlb

	// fetch and data are the regions the previous fetch and the previous
	// data lookup were answered from: a fetch lands in the text and a data
	// touch in the heap or the stack, so one memo for both would be lost at
	// every switch between them. Both are empty before their first lookup
	// and once regions overlap. regions holds page regions in insertion
	// order (the documented first-match-wins contract); sorted holds the
	// same regions ordered by base for the O(log n) lookup, valid only while
	// they stay disjoint.
	fetch, data pageMemo
	sorted      []pageRegion
	overlapped  bool
	regions     []pageRegion

	// What the map is built from: the unit's key.
	pageBytes, hugePageBytes uint64
	hugePages                HugePageMode
	thpCoverage              float64
}

func newTranslation(c *Config) *translation {
	return &translation{
		itlb: newTLB(c.ITLBEntries), dtlb: newTLB(c.DTLBEntries), stlb: newTLB(c.STLBEntries),
		pageBytes: c.PageBytes, hugePageBytes: c.HugePageBytes,
		hugePages: c.HugePages, thpCoverage: c.THPCoverage,
	}
}

// reset empties the TLBs and forgets the address map and the memos,
// keeping the memory of all of them.
func (t *translation) reset() {
	t.itlb.reset()
	t.dtlb.reset()
	t.stlb.reset()
	// Rebuilt from what survives, so a field added later is zeroed here
	// without being named.
	*t = translation{
		itlb: t.itlb, dtlb: t.dtlb, stlb: t.stlb,
		regions: t.regions[:0], sorted: t.sorted[:0],
		pageBytes: t.pageBytes, hugePageBytes: t.hugePageBytes,
		hugePages: t.hugePages, thpCoverage: t.thpCoverage,
	}
}

// mapText registers the simulator's code segment under the unit's
// huge-page mode.
func (t *translation) mapText(base, end uint64) {
	switch t.hugePages {
	case PagesTHP:
		// THP remaps the hottest prefix of the text to huge pages.
		split := base + uint64(float64(end-base)*t.thpCoverage)
		split &^= t.hugePageBytes - 1
		if split > base {
			t.addRegion(pageRegion{base, split, t.hugePageBytes})
		}
		t.addRegion(pageRegion{split, end, t.pageBytes})
	case PagesEHP:
		t.addRegion(pageRegion{base, end, t.hugePageBytes})
	default:
		t.addRegion(pageRegion{base, end, t.pageBytes})
	}
}

// addRegion records r in insertion order and maintains the sorted index
// used by the fast pageOf path. Overlapping registrations (none of the
// current callers produce any) fall back to the insertion-order scan so
// the documented first-match-wins behaviour is preserved exactly.
func (t *translation) addRegion(r pageRegion) {
	for _, have := range t.regions {
		if have == r {
			// Mapping is idempotent: under first-match-wins a repeated
			// region can never answer a lookup, and recording it would only
			// push lookups onto the overlapping-region scan. A session that
			// rebuilds its guest on a kept machine maps the same binary again.
			return
		}
	}
	t.regions = append(t.regions, r)
	if r.end <= r.base {
		return // empty region: can never match an address
	}
	i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i].base > r.base })
	if (i > 0 && t.sorted[i-1].end > r.base) || (i < len(t.sorted) && r.end > t.sorted[i].base) {
		// First match wins from here on, which only the scan keeps: no
		// lookup may be answered from a memo any more.
		t.overlapped = true
		t.fetch, t.data = pageMemo{}, pageMemo{}
		return
	}
	t.sorted = append(t.sorted, pageRegion{})
	copy(t.sorted[i+1:], t.sorted[i:])
	t.sorted[i] = r
}

// pageOf returns the base of the page addr lies in. Consecutive fetches,
// and consecutive data touches, overwhelmingly land in the region the last
// one of their kind hit, which memo (t.fetch or t.data) answers inline;
// everything else is pageOfSlow.
func (t *translation) pageOf(addr uint64, memo *pageMemo) uint64 {
	if addr-memo.base < memo.span {
		return addr &^ memo.mask
	}
	return t.pageOfSlow(addr, memo)
}

func (t *translation) pageOfSlow(addr uint64, memo *pageMemo) uint64 {
	if t.overlapped {
		for _, r := range t.regions {
			if addr >= r.base && addr < r.end {
				return addr &^ (r.pageBytes - 1)
			}
		}
		return addr &^ (t.pageBytes - 1)
	}
	// Binary search for the greatest base <= addr. Regions are disjoint
	// here, so it is the only candidate.
	rs := t.sorted
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
			*memo = pageMemo{r.base, r.end - r.base, r.pageBytes - 1}
			return addr &^ (r.pageBytes - 1)
		}
	}
	return addr &^ (t.pageBytes - 1)
}
