package uarch

// Differential tests: the cache, the O(1) exact-LRU TLB and the table-driven
// predictor must be indistinguishable from the naive implementations they
// replaced — hit-for-hit, miss-for-miss, victim-for-victim and
// counter-for-counter — on randomized and on traffic-shaped streams. The
// naive models below are verbatim ports of the first structures
// (slice-of-slices sets of {tag, valid, lru} lines with a per-access
// popcount; scan-based fully-associative LRU entry file; a predictor that
// trains its counters through a chain of ifs).

import (
	"math/bits"
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

// regionBases are where hostmodel's default config puts the simulator's
// text, heap and stack. One offset from each is one set of any cache with
// ways of up to 4 MB, under three tags of a few bits to all 31 of a sparse
// key's.
var regionBases = [...]uint64{0x40_0000, 0x7f00_0000_0000, 0x7fff_ff00_0000}

// TestCacheDifferential drives the flattened cache and the naive
// reference with identical randomized streams across several geometries,
// comparing hit/miss and eviction victims on every access. The addresses mix
// the text, the heap and the stack in every set, and a quarter of them flip
// one tag bit of an address — in a sparse cache, any of its key's 31 — so a
// key that drops or misplaces a tag bit aliases two lines a reference tells
// apart.
func TestCacheDifferential(t *testing.T) {
	for gi, tc := range []struct {
		g      CacheGeom
		sparse bool
	}{
		{CacheGeom{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64}, false},    // 8 sets
		{CacheGeom{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}, false},   // L1-like
		{CacheGeom{SizeBytes: 512 << 10, Ways: 16, LineBytes: 64}, false}, // 32 KB a way: the largest dense
		{CacheGeom{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64}, true},    // 64 KB a way: the smallest sparse, an L2
		{CacheGeom{SizeBytes: 48 << 10, Ways: 12, LineBytes: 64}, false},  // non-power-of-two ways
		{CacheGeom{SizeBytes: 768 << 10, Ways: 12, LineBytes: 64}, true},  // likewise, sparse
		{CacheGeom{SizeBytes: 2 << 10, Ways: 1, LineBytes: 32}, false},    // direct-mapped
		{CacheGeom{SizeBytes: 64 << 10, Ways: 1, LineBytes: 64}, true},    // direct-mapped, sparse
	} {
		g := tc.g
		c := newCache(g)
		if sparse := c.rowOf != nil; sparse != tc.sparse {
			t.Fatalf("geom %d %+v: sparse = %v, want %v", gi, g, sparse, tc.sparse)
		}
		ref := newNaiveCache(g)
		rng := rand.New(rand.NewSource(int64(gi) + 42))
		wayBits := bits.TrailingZeros64(g.Sets() * g.LineBytes)
		addr := func() uint64 {
			a := regionBases[rng.Intn(len(regionBases))] + rng.Uint64()%(4*g.SizeBytes)
			if rng.Intn(3) == 0 {
				a = regionBases[rng.Intn(len(regionBases))] + rng.Uint64()%(g.SizeBytes/4) // hot subset
			}
			if rng.Intn(4) == 0 {
				a ^= 1 << (wayBits + rng.Intn(addrBits-wayBits)) // the same set, one tag bit away
			}
			return a
		}
		for i := 0; i < 60000; i++ {
			a := addr()
			c.evictedOK = false
			gotHit := c.access(a)
			wantHit, wantEv, wantEvOK := ref.access(a)
			if gotHit != wantHit || c.evictedOK != wantEvOK ||
				(wantEvOK && c.evictedTag != wantEv) {
				t.Fatalf("geom %d step %d addr %#x: got (hit=%v ev=%#x,%v) want (hit=%v ev=%#x,%v)",
					gi, i, a, gotHit, c.evictedTag, c.evictedOK, wantHit, wantEv, wantEvOK)
			}
			// probe must agree with a state-preserving membership check.
			p := addr()
			if c.probe(p) != refProbe(ref, p) {
				t.Fatalf("geom %d step %d: probe(%#x) disagrees", gi, i, p)
			}
		}
		if tc.sparse {
			cacheEquiv(t, g, rowClassStream(g, int64(gi)))
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

// cacheEquiv drives a fresh cache and the naive reference over addrs and
// compares, on every step, hit/miss, the evicted tag, the resident count and
// probe of the address just touched, of the one touched before it and of its
// set-mate one cache size away.
func cacheEquiv(t testing.TB, g CacheGeom, addrs []uint64) {
	t.Helper()
	c := newCache(g)
	sparse := c.rowOf != nil
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

// rowClassStream walks sets of a sparse geometry through its row classes,
// each set under the same tags, so that a row handed from one set to another
// still holding the first one's keys would hit where the reference misses.
// First one set each takes 1, 2, 3, 5, 9 and ways distinct lines (capped at
// ways), hitting back all it holds after each fill, and the set of ways
// lines goes on past them into evictions; then sets stop exactly at each
// class boundary, 2, 4 and 8 lines, are hit back, and later take one line
// more. The walk runs again after a reset, over its sets in another order,
// so every row comes back out of a kept chunk or a free list.
func rowClassStream(g CacheGeom, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	sets, ways := g.Sets(), g.Ways
	var addrs []uint64
	line := func(set uint64, tag int) {
		addrs = append(addrs, (uint64(tag)*sets+set)*g.LineBytes+rng.Uint64()%g.LineBytes)
	}
	// fill gives set the lines of tags from..to-1, hitting back every line
	// of the set's tags below to that is still resident after each.
	fill := func(set uint64, from, to int) {
		for tag := from; tag < to; tag++ {
			line(set, tag)
			for _, back := range rng.Perm(min(tag+1, ways)) {
				line(set, tag-back)
			}
		}
	}
	walk := func(setOf func(i int) uint64) {
		i := 0
		for _, n := range []int{1, 2, 3, 5, 9, ways} {
			fill(setOf(i), 0, min(n, ways))
			i++
		}
		fill(setOf(i-1), ways, ways+ways/2+2)
		var stopped []uint64
		for _, n := range []int{2, 4, 8} {
			if n < ways {
				fill(setOf(i), 0, n)
				stopped = append(stopped, setOf(i))
				i++
			}
		}
		for j, set := range stopped {
			fill(set, 2<<j, 2<<j+1)
		}
	}
	walk(func(i int) uint64 { return uint64(i*37+5) % sets })
	addrs = append(addrs, resetOp)
	walk(func(i int) uint64 { return uint64((9-i)*37+5) % sets })
	return addrs
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
// filled, at every associativity and line size a host config uses, dense
// (below 64 KB a way) and sparse.
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
		{CacheGeom{SizeBytes: 512 << 10, Ways: 8, LineBytes: 64}, 200000},   // FireSim L2, sparse from here on
		{CacheGeom{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64}, 300000},    // Xeon L2
		{CacheGeom{SizeBytes: 8 << 20, Ways: 16, LineBytes: 128}, 600000},   // M1 Pro LLC
		{CacheGeom{SizeBytes: 4 << 20, Ways: 2, LineBytes: 64}, 300000},     // the Xeon LLC under eight co-runners
		{CacheGeom{SizeBytes: 3 << 20, Ways: 12, LineBytes: 64}, 300000},    // 12 ways: a last class of 12 keys
		{CacheGeom{SizeBytes: 1 << 20, Ways: 4, LineBytes: 64}, 200000},     // 4 ways: two classes
	} {
		addrs := trafficStream(tc.g, int64(gi)+7, tc.n)
		if tc.g.sparse() {
			// The rows the traffic left, full of its keys, are handed out
			// again to the class walk, and after it to traffic anew.
			addrs = append(append(addrs, resetOp), rowClassStream(tc.g, int64(gi))...)
			addrs = append(append(addrs, resetOp), trafficStream(tc.g, int64(gi)+70, tc.n/4)...)
		}
		cacheEquiv(t, tc.g, addrs)
	}
}

// FuzzCacheEquivalence takes the geometry from the first three bytes — 1
// to 2048 sets of 2 to 128 byte lines, so ways of 2 B to 256 KB, dense and
// sparse — and an op per following byte: the top two bits choose repeat,
// next line, same-set conflict or jump, the rest is the operand; the byte
// 0x3f is a reset, after which the replay must match a fresh cache. A jump
// of operand 32 or more goes to the top of the address space, where a sparse
// key's tag has its high bits set.
func FuzzCacheEquivalence(f *testing.F) {
	f.Add([]byte{7, 3, 5, 0x80, 0x00, 0x41, 0x42, 0xc1, 0x00, 0x43})                   // 8-way: fill, repeat, conflict
	f.Add([]byte{15, 0, 0, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0xc0, 0x81, 0x40})      // one 16-way set of 2 B lines
	f.Add([]byte{0, 5, 6, 0xc5, 0x05, 0x85, 0xc5, 0x45, 0x85})                         // direct-mapped, 128 B lines: repeat, evict, return
	f.Add([]byte{3, 1, 5, 0x80, 0x81, 0x82, 0x83, 0x84, 0x00, 0x3f, 0x00, 0x84, 0x80}) // 4-way: overfill a set, reset, the memoised line misses again
	f.Add([]byte{1, 10, 5, 0xc3, 0xe3, 0xc3, 0xe3, 0x80, 0x3f, 0xe3, 0xc3})            // 2-way, 64 KB ways (sparse): a low and a high tag in one set, reset
	f.Add([]byte{15, 11, 6, 0xe1, 0x81, 0x82, 0x83, 0xc1, 0xe1, 0x00, 0x42})           // 16-way, 256 KB ways: conflicts at the top of the address space
	// 16-way sparse, 512 sets of 128 B lines: sets 0, 1, 4, 9 and 16 walk to
	// 3, 5, 9, 16 and 20 lines under the same tags, hitting back as they go,
	// so each grows through the row classes and takes the rows the others
	// gave back; then sets stop at 2, 4 and 8 lines, take one more, and the
	// walks repeat after a reset, the sets in another order.
	f.Add(rowClassSeed(15, 9, 6, [][2]byte{{0, 3}, {1, 5}, {2, 9}, {3, 16}, {4, 20}, {5, 2}, {6, 4}, {7, 8}, {5, 3}, {6, 5}, {7, 9}},
		[][2]byte{{7, 9}, {0, 1}, {4, 16}, {2, 2}, {1, 4}}))
	f.Add(rowClassSeed(11, 10, 5, [][2]byte{{0, 2}, {1, 3}, {2, 5}, {3, 12}, {4, 14}}, [][2]byte{{3, 4}, {0, 12}})) // 12 ways, 1024 sets of 64 B
	f.Add(rowClassSeed(3, 11, 4, [][2]byte{{0, 2}, {1, 3}, {2, 6}}, [][2]byte{{2, 3}, {0, 1}}))                     // 4 ways, 2048 sets of 32 B
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ways := 1 + int(data[0])%maxWays
		sets := uint64(1) << (data[1] % 12)
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
				line = (arg&31)*(arg&31) + arg>>5<<(addrBits-1)/g.LineBytes
			}
			// Held below 2^47, as hostmodel holds its addresses.
			addrs = append(addrs, (line*g.LineBytes+arg%g.LineBytes)&(1<<addrBits-1))
		}
		cacheEquiv(t, g, addrs)
	})
}

// rowClassSeed is a FuzzCacheEquivalence input: the geometry bytes, then for
// each {a, n} of walks a walk of the set of line a² (a jump of operand a,
// below 32) to n lines of tags 0, 1, 2 … one set apart, every line so far
// touched again before each new one; then a reset, and the walks of again.
func rowClassSeed(ways, sets, line byte, walks, again [][2]byte) []byte {
	data := []byte{ways, sets, line}
	walk := func(ws [][2]byte) {
		for _, w := range ws {
			for k := byte(1); k <= w[1]; k++ {
				data = append(data, 0xc0|w[0])
				for j := byte(1); j < k; j++ {
					data = append(data, 0x80) // the same set, the next tag
				}
			}
		}
	}
	walk(walks)
	data = append(data, 0x3f)
	walk(again)
	return data
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

// naiveGshare is the predictor as first written: each counter trained by
// ifs on the outcome, the choice toward whichever component was right.
type naiveGshare struct {
	bimodal, global, choice []uint8
	mask, history           uint64

	btb []struct {
		tag, target uint64
		valid       bool
	}
	btbMask uint64

	BranchCounts
}

func newNaiveGshare(tableEntries, btbEntries int) *naiveGshare {
	g := &naiveGshare{
		bimodal: make([]uint8, tableEntries),
		global:  make([]uint8, tableEntries),
		choice:  make([]uint8, tableEntries),
		mask:    uint64(tableEntries - 1),
		btbMask: uint64(btbEntries - 1),
	}
	g.btb = make([]struct {
		tag, target uint64
		valid       bool
	}, btbEntries)
	for i := range g.bimodal {
		g.bimodal[i] = 2
		g.global[i] = 2
		g.choice[i] = 1
	}
	return g
}

func (g *naiveGshare) conditional(pc uint64, taken bool) bool {
	g.Lookups++
	bi := (pc >> 1) & g.mask
	gi := (pc>>1 ^ g.history) & g.mask
	bPred := g.bimodal[bi] >= 2
	gPred := g.global[gi] >= 2
	pred := bPred
	if g.choice[bi] >= 2 {
		pred = gPred
	}
	// Train the choice table toward whichever component was right.
	if gPred == taken && bPred != taken && g.choice[bi] < 3 {
		g.choice[bi]++
	} else if bPred == taken && gPred != taken && g.choice[bi] > 0 {
		g.choice[bi]--
	}
	train := func(t []uint8, i uint64) {
		if taken {
			if t[i] < 3 {
				t[i]++
			}
		} else if t[i] > 0 {
			t[i]--
		}
	}
	train(g.bimodal, bi)
	train(g.global, gi)
	g.history = g.history<<1 | b2u64(taken)
	correct := pred == taken
	if !correct {
		g.Mispredicts++
	}
	return correct
}

func (g *naiveGshare) indirect(pc, target uint64) bool {
	g.Lookups++
	idx := (pc >> 1) & g.btbMask
	e := &g.btb[idx]
	hit := e.valid && e.tag == pc && e.target == target
	if !hit {
		g.IndirectClears++
		g.Mispredicts++
	}
	e.tag = pc
	e.target = target
	e.valid = true
	return hit
}

// TestPredictorTablesExhaustive puts every counter state and outcome through
// the naive predictor's ifs, on a one-entry table where the bimodal, global
// and choice counters of a branch are the tables' only entries: satNext's 8
// cases, and choiceNext's 16, each reached with the branch taken and not.
func TestPredictorTablesExhaustive(t *testing.T) {
	for c := uint8(0); c < 4; c++ {
		for _, taken := range []bool{false, true} {
			n := newNaiveGshare(1, 1)
			n.bimodal[0], n.global[0] = c, c
			n.conditional(0, taken)
			if want := satNext[c][b2u8(taken)]; n.bimodal[0] != want || n.global[0] != want {
				t.Errorf("counter %d, taken=%v: ifs give %d and %d, satNext %d", c, taken, n.bimodal[0], n.global[0], want)
			}
		}
	}
	for c := uint8(0); c < 4; c++ {
		for bw := uint8(0); bw < 2; bw++ {
			for gw := uint8(0); gw < 2; gw++ {
				for tk := uint8(0); tk < 2; tk++ {
					// A counter of 3 predicts taken and one of 0 not.
					n := newNaiveGshare(1, 1)
					n.choice[0] = c
					n.bimodal[0], n.global[0] = 3*(tk^bw), 3*(tk^gw)
					n.conditional(0, tk == 1)
					if want := choiceNext[c][bw][gw]; n.choice[0] != want {
						t.Errorf("choice %d, bimodal wrong %d, global wrong %d, taken %d: ifs give %d, choiceNext %d",
							c, bw, gw, tk, n.choice[0], want)
					}
				}
			}
		}
	}
}

// branchOp is one record of a predictor stream.
type branchOp struct {
	pc, target      uint64
	taken, indirect bool
}

// CheckGshare drives a new predictor of the given sizes and the naive one
// over ops, and compares on every record the prediction, the counts, the
// history, the counters the record read and the BTB entry it wrote, and at
// the end every table and every BTB entry. It is exported for the external
// tests, which drive it with every platform's sizes.
func CheckGshare(t testing.TB, tableEntries, btbEntries int, ops []branchOp) {
	t.Helper()
	g := newGshare(tableEntries, btbEntries)
	ref := newNaiveGshare(tableEntries, btbEntries)
	for i, op := range ops {
		var got, want bool
		bi := (op.pc >> 1) & g.mask
		gi := (op.pc>>1 ^ g.history) & g.mask
		if op.indirect {
			got, want = g.indirect(op.pc, op.target), ref.indirect(op.pc, op.target)
		} else {
			got, want = g.conditional(op.pc, op.taken), ref.conditional(op.pc, op.taken)
		}
		e, re := g.btb[(op.pc>>1)&g.btbMask], ref.btb[(op.pc>>1)&ref.btbMask]
		if got != want || g.BranchCounts != ref.BranchCounts || g.history != ref.history ||
			g.bimodal[bi] != ref.bimodal[bi] || g.global[gi] != ref.global[gi] || g.choice[bi] != ref.choice[bi] ||
			e != re {
			t.Fatalf("%d/%d entries, record %d %+v: got correct=%v %+v history %#x counters %d %d %d btb %+v; "+
				"want correct=%v %+v history %#x counters %d %d %d btb %+v",
				tableEntries, btbEntries, i, op, got, g.BranchCounts, g.history, g.bimodal[bi], g.global[gi], g.choice[bi], e,
				want, ref.BranchCounts, ref.history, ref.bimodal[bi], ref.global[gi], ref.choice[bi], re)
		}
	}
	for i := range g.bimodal {
		if g.bimodal[i] != ref.bimodal[i] || g.global[i] != ref.global[i] || g.choice[i] != ref.choice[i] {
			t.Fatalf("%d/%d entries: entry %d is %d %d %d, want %d %d %d", tableEntries, btbEntries, i,
				g.bimodal[i], g.global[i], g.choice[i], ref.bimodal[i], ref.global[i], ref.choice[i])
		}
	}
	for i := range g.btb {
		if g.btb[i] != ref.btb[i] {
			t.Fatalf("%d/%d entries: BTB entry %d is %+v, want %+v", tableEntries, btbEntries, i, g.btb[i], ref.btb[i])
		}
	}
}

// BranchStream returns n seeded predictor records shaped like a program's:
// a few hot branches, each biased its own way, that alias in small tables;
// branches of random direction at random PCs; and indirect branches that
// mostly keep a target, sometimes change it, and share BTB entries. It is
// exported with CheckGshare.
func BranchStream(seed int64, n int) []branchOp {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]uint64, 32)
	bias := make([]int, len(hot))
	for i := range hot {
		hot[i] = 0x40_0000 + rng.Uint64()%(1<<20)
		bias[i] = rng.Intn(11) // taken in bias/10 of its runs
	}
	ops := make([]branchOp, n)
	for i := range ops {
		switch r := rng.Intn(16); {
		case r < 10:
			h := rng.Intn(len(hot))
			ops[i] = branchOp{pc: hot[h], taken: rng.Intn(10) < bias[h]}
		case r < 13:
			ops[i] = branchOp{pc: rng.Uint64() % (1 << 24), taken: rng.Intn(2) == 0}
		default:
			ops[i] = branchOp{pc: hot[rng.Intn(4)] + 0x1000*uint64(rng.Intn(3)),
				target: 0x50_0000 + 0x40*uint64(rng.Intn(3)), indirect: true}
		}
	}
	return ops
}

// TestGshareDifferential covers the small tables, where every branch
// aliases; TestPlatformPredictorsDifferential runs the platforms' sizes.
func TestGshareDifferential(t *testing.T) {
	for i, sz := range [][2]int{{1, 1}, {2, 1}, {16, 4}, {256, 64}, {4096, 1024}} {
		CheckGshare(t, sz[0], sz[1], BranchStream(int64(i)+11, 100000))
	}
}

// FuzzGshareEquivalence takes the table sizes from the first byte (1 to 16
// entries, a BTB of 1 to 8) and a record per following byte: with the top
// bit set an indirect branch, its pc from bits 3-6 and its target from bits
// 0-2; else a conditional branch, its pc from bits 1-6 and its direction
// from bit 0.
func FuzzGshareEquivalence(f *testing.F) {
	f.Add([]byte{0x24, 1, 1, 1, 0, 0, 0, 0x81, 0x81, 0x82, 0x89})
	f.Add([]byte{0x00, 0, 1, 0, 1, 0, 1, 0x80, 0x80})
	f.Add([]byte{0x34, 2, 3, 5, 7, 3, 2, 0x91, 0xa1, 0x91, 0xa1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		tableEntries, btbEntries := 1<<(data[0]&7%5), 1<<(data[0]>>4&3)
		ops := make([]branchOp, 0, len(data)-1)
		for _, b := range data[1:] {
			if b&0x80 != 0 {
				ops = append(ops, branchOp{pc: uint64(b>>3&15) << 1, target: uint64(b & 7), indirect: true})
			} else {
				ops = append(ops, branchOp{pc: uint64(b>>1&63) << 1, taken: b&1 != 0})
			}
		}
		CheckGshare(t, tableEntries, btbEntries, ops)
	})
}
