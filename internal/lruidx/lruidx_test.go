package lruidx

import (
	"math/rand"
	"testing"
)

// naiveLRU is the reference: a plain scan-based fully-associative LRU
// file, structured exactly like the TLBs this package replaced.
type naiveLRU struct {
	entries []struct {
		key   uint64
		lru   uint64
		valid bool
	}
	seq uint64
}

func newNaive(n int) *naiveLRU {
	l := &naiveLRU{}
	l.entries = make([]struct {
		key   uint64
		lru   uint64
		valid bool
	}, n)
	return l
}

// access returns (hit, evictedKey, evicted) for one reference.
func (l *naiveLRU) access(key uint64) (bool, uint64, bool) {
	l.seq++
	victim := &l.entries[0]
	for i := range l.entries {
		e := &l.entries[i]
		if e.valid && e.key == key {
			e.lru = l.seq
			return true, 0, false
		}
		if !e.valid {
			victim = e
		} else if victim.valid && e.lru < victim.lru {
			victim = e
		}
	}
	evicted, wasEvict := victim.key, victim.valid
	victim.key = key
	victim.valid = true
	victim.lru = l.seq
	return false, evicted, wasEvict
}

// access drives the index with the TLB-style hit-or-insert protocol.
func access(ix *Index, key uint64) (bool, uint64, bool) {
	if slot, ok := ix.Lookup(key); ok {
		ix.Touch(slot)
		return true, 0, false
	}
	_, ev, wasEvict := ix.Insert(key)
	return false, ev, wasEvict
}

func TestBasicLRU(t *testing.T) {
	ix := New(2)
	if hit, _, _ := access(ix, 1); hit {
		t.Fatal("cold hit")
	}
	if hit, _, _ := access(ix, 1); !hit {
		t.Fatal("warm miss")
	}
	access(ix, 2)
	access(ix, 1) // 2 is now LRU
	if _, ev, wasEvict := access(ix, 3); !wasEvict || ev != 2 {
		t.Fatalf("evicted %d (%v), want 2", ev, wasEvict)
	}
	if hit, _, _ := access(ix, 2); hit {
		t.Fatal("evicted key still resident")
	}
	if ix.Len() != 2 || ix.Cap() != 2 {
		t.Fatalf("len %d cap %d", ix.Len(), ix.Cap())
	}
}

// TestDifferentialVsNaive hammers the index with random key streams over
// several capacities and footprints, requiring hit-for-hit and
// victim-for-victim equality with the scan-based reference.
func TestDifferentialVsNaive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1536} {
		for _, footprint := range []uint64{2, 8, uint64(n), uint64(2 * n), uint64(8 * n)} {
			if footprint == 0 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(n)*1315423911 + int64(footprint)))
			ix := New(n)
			ref := newNaive(n)
			for i := 0; i < 20000; i++ {
				// Page-aligned keys mimic real TLB traffic; a skewed
				// distribution mixes hot reuse with cold misses.
				key := (rng.Uint64() % footprint) << 12
				if rng.Intn(4) == 0 {
					key = (rng.Uint64() % 4) << 12 // hot subset
				}
				gotHit, gotEv, gotWas := access(ix, key)
				wantHit, wantEv, wantWas := ref.access(key)
				if gotHit != wantHit || gotWas != wantWas || (gotWas && gotEv != wantEv) {
					t.Fatalf("n=%d footprint=%d step %d key %#x: got (%v,%#x,%v) want (%v,%#x,%v)",
						n, footprint, i, key, gotHit, gotEv, gotWas, wantHit, wantEv, wantWas)
				}
			}
			if ix.Len() > ix.Cap() {
				t.Fatalf("len %d exceeds cap %d", ix.Len(), ix.Cap())
			}
		}
	}
}

// TestAdversarialCollisions forces long probe chains and backward-shift
// deletions by using keys that all hash near each other.
func TestAdversarialCollisions(t *testing.T) {
	const n = 8
	ix := New(n)
	ref := newNaive(n)
	// Keys differing only in high bits collide heavily after the
	// multiplicative hash truncation for a 32-entry table.
	keys := make([]uint64, 0, 64)
	for i := uint64(0); i < 64; i++ {
		keys = append(keys, i<<58|0xABC)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		key := keys[rng.Intn(len(keys))]
		gotHit, gotEv, gotWas := access(ix, key)
		wantHit, wantEv, wantWas := ref.access(key)
		if gotHit != wantHit || gotWas != wantWas || (gotWas && gotEv != wantEv) {
			t.Fatalf("step %d key %#x: got (%v,%#x,%v) want (%v,%#x,%v)",
				i, key, gotHit, gotEv, gotWas, wantHit, wantEv, wantWas)
		}
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

// TestResetIsFresh: an index that has been filled, churned and Reset must
// answer a random stream exactly as the naive reference started from empty
// does — hit for hit and victim for victim — and report itself empty.
func TestResetIsFresh(t *testing.T) {
	for _, n := range []int{1, 7, 64, 512} {
		rng := rand.New(rand.NewSource(int64(n)))
		ix := New(n)
		for i := 0; i < 8*n; i++ {
			access(ix, rng.Uint64()%uint64(3*n))
		}
		ix.Reset()
		if ix.Len() != 0 || ix.Cap() != n {
			t.Fatalf("n=%d: after Reset Len=%d Cap=%d", n, ix.Len(), ix.Cap())
		}
		ref := newNaive(n)
		for i := 0; i < 16*n; i++ {
			key := rng.Uint64() % uint64(3*n)
			gotHit, gotEv, gotOK := access(ix, key)
			wantHit, wantEv, wantOK := ref.access(key)
			if gotHit != wantHit || gotOK != wantOK || (wantOK && gotEv != wantEv) {
				t.Fatalf("n=%d step %d key %d: got (%v,%d,%v) want (%v,%d,%v)",
					n, i, key, gotHit, gotEv, gotOK, wantHit, wantEv, wantOK)
			}
		}
	}
}
