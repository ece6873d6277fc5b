package uarch

// Differential tests: the cache and the O(1) exact-LRU TLB must be
// indistinguishable from the naive implementations they replaced —
// hit-for-hit, miss-for-miss, and victim-for-victim — on randomized and
// on traffic-shaped access streams. The naive models below are verbatim
// ports of the first structures (slice-of-slices sets of {tag, valid,
// lru} lines with a per-access popcount; scan-based fully-associative
// LRU entry file).

import (
	"math/rand"
	"testing"
)

// naivePopcount is the hand-rolled bit count the old cache used on every
// access; kept here so the reference model is a faithful replica.
func naivePopcount(mask uint64) uint {
	var n uint
	for mask != 0 {
		n += uint(mask & 1)
		mask >>= 1
	}
	return n
}

// cacheLine is one way of the reference model.
type cacheLine struct {
	tag   uint64
	valid bool
	lru   uint64
}

// naiveCache is the pre-refactor set-associative LRU cache.
type naiveCache struct {
	sets     [][]cacheLine
	setMask  uint64
	lineBits uint
	seq      uint64
}

func newNaiveCache(g CacheGeom) *naiveCache {
	sets := g.Sets()
	c := &naiveCache{setMask: sets - 1}
	for g.LineBytes>>c.lineBits > 1 {
		c.lineBits++
	}
	c.sets = make([][]cacheLine, sets)
	for i := range c.sets {
		c.sets[i] = make([]cacheLine, g.Ways)
	}
	return c
}

// access returns (hit, evictedTag, evictedValid) for one reference.
func (c *naiveCache) access(addr uint64) (bool, uint64, bool) {
	block := addr >> c.lineBits
	set := c.sets[block&c.setMask]
	tag := block >> naivePopcount(c.setMask)
	c.seq++
	victim := &set[0]
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lru = c.seq
			return true, 0, false
		}
		if !l.valid {
			victim = l
		} else if victim.valid && l.lru < victim.lru {
			victim = l
		}
	}
	evTag, evOK := victim.tag, victim.valid
	victim.tag = tag
	victim.valid = true
	victim.lru = c.seq
	return false, evTag, evOK
}

// naiveTLB is the pre-refactor scan-based fully-associative LRU TLB.
type naiveTLB struct {
	entries []struct {
		page, lru uint64
		valid     bool
	}
	seq uint64
}

func newNaiveTLB(entries int) *naiveTLB {
	t := &naiveTLB{}
	t.entries = make([]struct {
		page, lru uint64
		valid     bool
	}, entries)
	return t
}

func (t *naiveTLB) access(page uint64) (bool, uint64, bool) {
	t.seq++
	victim := &t.entries[0]
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.page == page {
			e.lru = t.seq
			return true, 0, false
		}
		if !e.valid {
			victim = e
		} else if victim.valid && e.lru < victim.lru {
			victim = e
		}
	}
	evPage, evOK := victim.page, victim.valid
	victim.page = page
	victim.valid = true
	victim.lru = t.seq
	return false, evPage, evOK
}

// TestCacheDifferential drives the flattened cache and the naive
// reference with identical randomized streams across several geometries,
// comparing hit/miss and eviction victims on every access.
func TestCacheDifferential(t *testing.T) {
	geoms := []CacheGeom{
		{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64},   // 8 sets
		{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},  // L1-like
		{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64},  // L2-like
		{SizeBytes: 48 << 10, Ways: 12, LineBytes: 64}, // non-power-of-two ways
		{SizeBytes: 2 << 10, Ways: 1, LineBytes: 32},   // direct-mapped
	}
	for gi, g := range geoms {
		c := newCache(g, gi%2 == 1)
		ref := newNaiveCache(g)
		rng := rand.New(rand.NewSource(int64(gi) + 42))
		footprint := 4 * g.SizeBytes
		for i := 0; i < 60000; i++ {
			addr := rng.Uint64() % footprint
			if rng.Intn(3) == 0 {
				addr = rng.Uint64() % (g.SizeBytes / 4) // hot subset
			}
			c.evictedOK = false
			gotHit := c.access(addr)
			wantHit, wantEv, wantEvOK := ref.access(addr)
			if gotHit != wantHit || c.evictedOK != wantEvOK ||
				(wantEvOK && c.evictedTag != wantEv) {
				t.Fatalf("geom %d step %d addr %#x: got (hit=%v ev=%#x,%v) want (hit=%v ev=%#x,%v)",
					gi, i, addr, gotHit, c.evictedTag, c.evictedOK, wantHit, wantEv, wantEvOK)
			}
			// probe must agree with a state-preserving membership check.
			p := rng.Uint64() % footprint
			if c.probe(p) != refProbe(ref, p) {
				t.Fatalf("geom %d step %d: probe(%#x) disagrees", gi, i, p)
			}
		}
	}
}

func refProbe(c *naiveCache, addr uint64) bool {
	block := addr >> c.lineBits
	set := c.sets[block&c.setMask]
	tag := block >> naivePopcount(c.setMask)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// resetOp in a cacheEquiv stream resets the cache under test and replaces
// the reference with a fresh one: a reset cache must be a fresh cache.
const resetOp = ^uint64(0)

// cacheEquiv drives a fresh cache of each kind and the naive reference over
// addrs and compares, on every step, hit/miss, the evicted tag, the resident
// count and probe of the address just touched, of the one touched before it
// and of its set-mate one cache size away.
func cacheEquiv(t testing.TB, g CacheGeom, addrs []uint64) {
	t.Helper()
	for _, sparse := range []bool{false, true} {
		cacheKindEquiv(t, g, sparse, addrs)
	}
}

func cacheKindEquiv(t testing.TB, g CacheGeom, sparse bool, addrs []uint64) {
	t.Helper()
	c := newCache(g, sparse)
	ref := newNaiveCache(g)
	var resident, prev, accesses uint64
	for i, addr := range addrs {
		if addr == resetOp {
			c.reset()
			ref = newNaiveCache(g)
			resident, prev, accesses = 0, 0, 0
			continue
		}
		accesses++
		c.evictedOK = false
		gotHit := c.access(addr)
		wantHit, wantEv, wantEvOK := ref.access(addr)
		if !wantHit && !wantEvOK {
			resident++
		}
		if gotHit != wantHit || c.evictedOK != wantEvOK || (wantEvOK && c.evictedTag != wantEv) {
			t.Fatalf("%+v sparse=%v step %d addr %#x: got (hit=%v ev=%#x,%v) want (hit=%v ev=%#x,%v)",
				g, sparse, i, addr, gotHit, c.evictedTag, c.evictedOK, wantHit, wantEv, wantEvOK)
		}
		if c.resident != resident {
			t.Fatalf("%+v sparse=%v step %d: resident = %d, want %d", g, sparse, i, c.resident, resident)
		}
		for _, p := range []uint64{addr, prev, addr + g.SizeBytes} {
			if c.probe(p) != refProbe(ref, p) {
				t.Fatalf("%+v sparse=%v step %d: probe(%#x) disagrees", g, sparse, i, p)
			}
		}
		prev = addr
	}
	if c.Accesses != accesses {
		t.Fatalf("%+v sparse=%v: %d accesses counted, want %d", g, sparse, c.Accesses, accesses)
	}
}

// trafficStream is shaped like the hostmodel's stream and not like uniform
// noise: runs of repeats inside one line (the memo), walks over the next
// lines, returns to lines touched long ago (after their eviction, once the
// footprint has outgrown the cache), and jumps by a whole number of sets
// (conflicts in one set). The footprint starts at a sixteenth of the cache
// and doubles every eighth of the stream up to four times its size, so big
// geometries spend long phases with partly filled sets, where the victim
// must be the last unfilled way.
func trafficStream(g CacheGeom, seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]uint64, 0, n)
	var history []uint64
	line := uint64(0)
	for len(addrs) < n {
		footprint := g.SizeBytes / 16 << uint(len(addrs)*8/n) / g.LineBytes
		if footprint < 2 {
			footprint = 2
		}
		switch rng.Intn(8) {
		case 0, 1: // a new place
			line = rng.Uint64() % footprint
		case 2: // an old place
			if len(history) > 0 {
				line = history[rng.Intn(len(history))]
			}
		case 3: // same set, another tag
			line += g.Sets() * uint64(1+rng.Intn(2*g.Ways))
		default: // the next line
			line++
		}
		history = append(history, line)
		for r := 1 + rng.Intn(4); r > 0 && len(addrs) < n; r-- {
			addrs = append(addrs, line*g.LineBytes+rng.Uint64()%g.LineBytes)
		}
	}
	return addrs
}

// TestCacheDifferentialTraffic covers what uniform addresses almost never
// produce: back-to-back repeats of a block and sets that stay partly
// filled, at every associativity and line size a host config uses.
func TestCacheDifferentialTraffic(t *testing.T) {
	for gi, tc := range []struct {
		g CacheGeom
		n int
	}{
		{CacheGeom{SizeBytes: 2 << 10, Ways: 1, LineBytes: 32}, 60000},      // direct-mapped
		{CacheGeom{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64}, 60000},      // 8 sets
		{CacheGeom{SizeBytes: 2 << 10, Ways: 8, LineBytes: 32}, 60000},      // the Xeon's DSB
		{CacheGeom{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}, 100000},    // Xeon L1
		{CacheGeom{SizeBytes: 192 << 10, Ways: 12, LineBytes: 128}, 100000}, // M1 L1I
		{CacheGeom{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64}, 300000},    // Xeon L2
		{CacheGeom{SizeBytes: 8 << 20, Ways: 16, LineBytes: 128}, 600000},   // M1 Pro LLC
	} {
		cacheEquiv(t, tc.g, trafficStream(tc.g, int64(gi)+7, tc.n))
	}
}

// FuzzCacheEquivalence takes the geometry from the first three bytes and
// an op per following byte: the top two bits choose repeat, next line,
// same-set conflict or jump, the rest is the operand; the byte 0x3f is a
// reset, after which the replay must match a fresh cache.
func FuzzCacheEquivalence(f *testing.F) {
	f.Add([]byte{7, 3, 5, 0x80, 0x00, 0x41, 0x42, 0xc1, 0x00, 0x43})                   // 8-way: fill, repeat, conflict
	f.Add([]byte{15, 0, 0, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0xc0, 0x81, 0x40})      // one 16-way set of 2 B lines
	f.Add([]byte{0, 5, 6, 0xc5, 0x05, 0x85, 0xc5, 0x45, 0x85})                         // direct-mapped, 128 B lines: repeat, evict, return
	f.Add([]byte{3, 1, 5, 0x80, 0x81, 0x82, 0x83, 0x84, 0x00, 0x3f, 0x00, 0x84, 0x80}) // 4-way: overfill a set, reset, the memoised line misses again
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ways := 1 + int(data[0])%maxWays
		sets := uint64(1) << (data[1] % 7)
		g := CacheGeom{Ways: ways, LineBytes: 2 << (data[2] % 7)}
		g.SizeBytes = sets * uint64(ways) * g.LineBytes
		line := uint64(0)
		addrs := make([]uint64, 0, len(data)-3)
		for _, b := range data[3:] {
			if b == 0x3f {
				addrs = append(addrs, resetOp)
				continue
			}
			arg := uint64(b & 0x3f)
			switch b >> 6 {
			case 1:
				line += 1 + arg
			case 2:
				line += sets * (1 + arg)
			case 3:
				line = arg * arg
			}
			addrs = append(addrs, line*g.LineBytes+arg%g.LineBytes)
		}
		cacheEquiv(t, g, addrs)
	})
}

// TestTLBDifferential drives the O(1) TLB and the naive scan with
// identical randomized page streams across the entry counts the host
// configs use (64-entry L1 TLBs up to the 1.5k-entry Xeon STLB).
func TestTLBDifferential(t *testing.T) {
	for _, entries := range []int{1, 2, 64, 128, 1536} {
		for _, pages := range []uint64{4, uint64(entries), uint64(3 * entries)} {
			tl := newTLB(entries)
			ref := newNaiveTLB(entries)
			rng := rand.New(rand.NewSource(int64(entries)*31 + int64(pages)))
			for i := 0; i < 40000; i++ {
				page := (rng.Uint64() % pages) << 12
				tl.evictedOK = false
				gotHit := tl.access(page)
				wantHit, wantEv, wantEvOK := ref.access(page)
				if gotHit != wantHit || tl.evictedOK != wantEvOK ||
					(wantEvOK && tl.evictedPage != wantEv) {
					t.Fatalf("entries=%d pages=%d step %d page %#x: got (hit=%v ev=%#x,%v) want (hit=%v ev=%#x,%v)",
						entries, pages, i, page, gotHit, tl.evictedPage, tl.evictedOK,
						wantHit, wantEv, wantEvOK)
				}
			}
			if tl.Misses == 0 || tl.Misses > tl.Accesses {
				t.Fatalf("entries=%d: %d misses of %d accesses", entries, tl.Misses, tl.Accesses)
			}
		}
	}
}

// TestPageOfMemoization checks the two memoized + binary-search pageOf
// lookups of a translation unit — the fetch memo and the data memo, used in
// any interleaving — against a plain first-match scan over the
// insertion-ordered regions, including THP split text and out-of-region
// fallback addresses; and again once an overlapping region has put the unit
// on the scan, where neither memo may answer.
func TestPageOfMemoization(t *testing.T) {
	cfg := testConfig()
	cfg.HugePages = PagesTHP
	cfg.THPCoverage = 0.6
	m := NewMachine(cfg)
	m.MapText(0x40_0000, 0x40_0000+64<<20)
	m.MapData(0x7f00_0000_0000, 0x7f00_0000_0000+32<<20)
	m.MapData(0x7fff_ff00_0000-(1<<20), 0x7fff_ff00_0000+(1<<12))
	tr := &m.lanes[0].unit[kindXlat].tr

	scan := func(addr uint64) uint64 {
		for _, r := range tr.regions {
			if addr >= r.base && addr < r.end {
				return addr &^ (r.pageBytes - 1)
			}
		}
		return addr &^ (cfg.PageBytes - 1)
	}

	rng := rand.New(rand.NewSource(99))
	spans := [][2]uint64{
		{0x40_0000, 0x40_0000 + 64<<20},
		{0x7f00_0000_0000, 0x7f00_0000_0000 + 32<<20},
		{0x7fff_ff00_0000 - (1 << 20), 0x7fff_ff00_0000 + (1 << 12)},
		{0, 1 << 30}, // mostly unmapped
	}
	check := func(phase string) {
		for i := 0; i < 200000; i++ {
			// Fetches mostly in the text and data mostly elsewhere, as the
			// stream has them, but either memo may see any address.
			s := spans[rng.Intn(len(spans))]
			addr := s[0] + rng.Uint64()%(s[1]-s[0])
			memo, name := &tr.data, "data"
			if (s[0] == spans[0][0]) != (rng.Intn(8) == 0) {
				memo, name = &tr.fetch, "fetch"
			}
			if got, want := tr.pageOf(addr, memo), scan(addr); got != want {
				t.Fatalf("%s: pageOf(%#x) through the %s memo = %#x, want %#x", phase, addr, name, got, want)
			}
		}
	}
	check("disjoint")
	if tr.fetch == (pageMemo{}) || tr.data == (pageMemo{}) {
		t.Fatalf("a memo never filled: fetch %+v, data %+v", tr.fetch, tr.data)
	}
	// A region over the top of the heap and into the unmapped space above
	// it, with huge pages: first match wins from here on.
	tr.addRegion(pageRegion{0x7f00_0000_0000 + 16<<20, 0x7f00_0000_0000 + 64<<20, 2 << 20})
	spans = append(spans, [2]uint64{0x7f00_0000_0000, 0x7f00_0000_0000 + 96<<20})
	check("overlapped")
	if tr.fetch != (pageMemo{}) || tr.data != (pageMemo{}) {
		t.Fatalf("a memo filled on the overlapping-region scan: fetch %+v, data %+v", tr.fetch, tr.data)
	}
}
