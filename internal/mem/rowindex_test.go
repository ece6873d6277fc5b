package mem

// The row-indexed line store of the shared L2 against the dense one the L1s
// keep: one access stream through a cache of each kind, same geometry, must
// give the same latencies, hits and misses, the same downstream traffic
// (fetches, and the writeback of every dirty victim, address for address)
// and the same valid lines in the same order.

import (
	"fmt"
	"math/rand"
	"testing"

	"gem5prof/internal/sim"
)

// storeOp is one step of a store-equivalence script.
type storeOp struct {
	kind  uint8 // 0 read, 1 write, 2 Invalidate, 3 Downgrade
	block uint32
}

// visited is what VisitLines reports, in order.
func visited(c *Cache) string {
	var out []byte
	c.VisitLines(func(block uint32, dirty, excl bool) {
		out = fmt.Appendf(out, "%#x/%v/%v ", block, dirty, excl)
	})
	return string(out)
}

// storesAgree runs ops on a dense and a row-indexed cache of cfg and
// compares them step by step.
func storesAgree(t testing.TB, cfg CacheConfig, ops []storeOp) {
	t.Helper()
	var caches [2]*Cache
	var stubs [2]*stubPort
	for i := range caches {
		sys := sim.NewSystem(1)
		stubs[i] = &stubPort{sys: sys, latency: 7}
		caches[i] = newCache(sys, cfg, stubs[i], i == 1)
	}
	dense, indexed := caches[0], caches[1]
	for i, op := range ops {
		addr := op.block * cfg.BlockBytes
		var got [2]string
		for k, c := range caches {
			switch op.kind {
			case 0, 1:
				lat := c.AtomicLatency(Access{Addr: addr + 4, Size: 4, Write: op.kind == 1})
				got[k] = fmt.Sprintf("lat %d hits %d misses %d writebacks %d", lat, c.Hits(), c.Misses(), c.Writebacks())
			case 2:
				had, lat := c.Invalidate(addr, true)
				got[k] = fmt.Sprintf("invalidate %v %d", had, lat)
			default:
				had, lat := c.Downgrade(addr, true)
				got[k] = fmt.Sprintf("downgrade %v %d", had, lat)
			}
		}
		if got[0] != got[1] {
			t.Fatalf("step %d %+v: dense %q, row-indexed %q", i, op, got[0], got[1])
		}
		if a, b := stubs[0].reqs, stubs[1].reqs; len(a) != len(b) || (len(a) > 0 && a[len(a)-1] != b[len(b)-1]) {
			t.Fatalf("step %d %+v: downstream traffic differs: %d requests against %d", i, op, len(a), len(b))
		}
		if i%4096 == 4095 || i == len(ops)-1 {
			if d, x := visited(dense), visited(indexed); d != x {
				t.Fatalf("step %d: valid lines differ:\ndense       %s\nrow-indexed %s", i, d, x)
			}
		}
	}
	for i := range stubs[0].reqs {
		if stubs[0].reqs[i] != stubs[1].reqs[i] {
			t.Fatalf("downstream request %d: dense %+v, row-indexed %+v", i, stubs[0].reqs[i], stubs[1].reqs[i])
		}
	}
}

// TestLineStoresAgree: a footprint that grows from a corner of the cache to
// four times its size, a third of the accesses stores, with coherence-style
// invalidations and downgrades of recently touched blocks mixed in — so sets
// are first touched late, partly filled for long, emptied again, and evict
// dirty lines.
func TestLineStoresAgree(t *testing.T) {
	for ci, cfg := range []CacheConfig{
		{Name: "l2", SizeBytes: 1 << 20, Ways: 8, BlockBytes: 64, HitLatency: 12, ResponseLatency: 4, MSHRs: 16}, // the guest's L2
		{Name: "s", SizeBytes: 1 << 10, Ways: 4, BlockBytes: 64, HitLatency: 1, ResponseLatency: 1, MSHRs: 4},    // 4 sets
		{Name: "dm", SizeBytes: 8 << 10, Ways: 1, BlockBytes: 32, HitLatency: 1, ResponseLatency: 1, MSHRs: 4},   // direct-mapped, 256 sets
	} {
		rng := rand.New(rand.NewSource(int64(ci) + 11))
		blocks := cfg.SizeBytes / cfg.BlockBytes
		const n = 60000
		ops := make([]storeOp, n)
		for i := range ops {
			footprint := blocks / 16 << uint(i*7/n)
			op := storeOp{block: rng.Uint32() % footprint}
			switch r := rng.Intn(12); {
			case r < 4:
				op.kind = 1
			case r == 4 && i > 0:
				op = storeOp{2, ops[rng.Intn(i)].block}
			case r == 5 && i > 0:
				op = storeOp{3, ops[rng.Intn(i)].block}
			}
			ops[i] = op
		}
		storesAgree(t, cfg, ops)
	}
}

// TestRowIndexedFullFootprint: a guest that touches every set of the L2
// pays the dense array plus one index word per set and no more — chunks are
// never grown by copying and the last one is not oversized.
func TestRowIndexedFullFootprint(t *testing.T) {
	cfg := DefaultHierarchyConfig("sys").L2
	sets := cfg.SizeBytes / (uint32(cfg.Ways) * cfg.BlockBytes)
	sys := sim.NewSystem(1)
	c := newCache(sys, cfg, &stubPort{sys: sys, latency: 1}, true)
	for set := uint32(0); set < sets; set++ {
		c.AtomicLatency(Access{Addr: set * cfg.BlockBytes, Size: 4})
	}
	const lineBytes = 16
	var held uint32
	for _, ch := range c.chunks {
		held += uint32(cap(ch)) * lineBytes
	}
	if dense := sets * uint32(cfg.Ways) * lineBytes; held != dense {
		t.Errorf("every set touched: %d bytes of rows, the dense array is %d", held, dense)
	}
	if c.rows != sets {
		t.Errorf("%d rows for %d sets", c.rows, sets)
	}
}

// FuzzLineStores takes the geometry from the first two bytes and one op per
// following pair: the top two bits of the first byte choose read, write,
// Invalidate or Downgrade, the rest is the block number.
func FuzzLineStores(f *testing.F) {
	f.Add([]byte{1, 2, 0x00, 0x01, 0x40, 0x01, 0x00, 0x05, 0x40, 0x09, 0x00, 0x0d, 0x00, 0x11, 0x80, 0x01, 0x00, 0x01})
	f.Add([]byte{0, 0, 0x40, 0x00, 0x40, 0x01, 0xc0, 0x00, 0x00, 0x02, 0x80, 0x01, 0x00, 0x00})
	f.Add([]byte{3, 5, 0x40, 0x00, 0x41, 0x00, 0x42, 0x00, 0x43, 0x00, 0x44, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := 1 + int(data[0])%8
		sets := uint32(1) << (data[1] % 8)
		cfg := CacheConfig{Name: "f", Ways: ways, BlockBytes: 64, SizeBytes: sets * uint32(ways) * 64,
			HitLatency: 1, ResponseLatency: 1, MSHRs: 2}
		var ops []storeOp
		for i := 2; i+1 < len(data); i += 2 {
			ops = append(ops, storeOp{kind: data[i] >> 6, block: uint32(data[i]&0x3f)<<8 | uint32(data[i+1])})
		}
		storesAgree(t, cfg, ops)
	})
}
