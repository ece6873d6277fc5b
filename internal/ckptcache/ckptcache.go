// Package ckptcache is a content-addressed on-disk cache for guest
// checkpoints. Sweep-shaped experiment suites (figs 10–14) run many cells
// that share a workload and config prefix and differ only in the host
// platform or seed; each such family needs the expensive Atomic
// fast-forward exactly once, after which every cell restores from the
// cache.
//
// Integrity is enforced on the read path, not trusted from the write path:
// every entry carries the FNV-64a hash of its payload, and Get re-hashes
// what it read before returning it. A bit-flipped, truncated, or
// version-skewed entry is evicted and reported as a miss, so a corrupt
// cache can cost time but can never inject garbage state into a
// simulation. (The payload itself is a core.Checkpoint JSON document,
// which DecodeCheckpoint validates again downstream — the cache check
// simply fails faster and keeps the cache self-cleaning.)
//
// No harness opens a cache any more: a warm one measured 0.99x a cold one
// (simpoint.warm_cache_ratio), and cmd/experiments -ckpt-cache-dir was
// removed. The package stays because bench/ compiles against it.
package ckptcache

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
)

// Key identifies one checkpoint: which workload was fast-forwarded, under
// which execution-relevant guest config, in which serialization format, up
// to which guest tick. Anything that can change the bytes a fast-forward
// produces MUST be part of the key; anything that cannot (the guest seed,
// which nothing reads — pinned by TestCheckpointSeedInvariance — or the
// host platform, which the guest never observes) deliberately is not, so
// config families share entries.
type Key struct {
	// Workload names the guest program (including its scale), e.g.
	// "sieve@1024".
	Workload string
	// ConfigPrefix is the canonical rendering of every GuestConfig field
	// that affects execution (see simpoint.ConfigPrefix).
	ConfigPrefix string
	// FormatVersion is core.CheckpointVersion at write time; bumping the
	// checkpoint format orphans old entries instead of mis-restoring them.
	FormatVersion int
	// Tick is the guest time of the checkpoint.
	Tick uint64
}

// ID returns the 64-bit content address of the key: FNV-64a over the
// fields with strings length-prefixed, so ("ab","c") and ("a","bc") — or a
// workload whose name ends in digits and a tick — cannot collide by
// concatenation.
func (k Key) ID() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(s string) {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		h.Write([]byte(s))
	}
	put(k.Workload)
	put(k.ConfigPrefix)
	binary.LittleEndian.PutUint64(b[:], uint64(k.FormatVersion))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], k.Tick)
	h.Write(b[:])
	return h.Sum64()
}

// Name returns the entry's file name within the cache directory.
func (k Key) Name() string { return fmt.Sprintf("%016x.ckpt", k.ID()) }

// entry framing: magic, then the key ID (so a hash-colliding rename or a
// file copied between directories is caught), then the payload hash, then
// the payload.
const magic = "g5ckpt01"

const headerBytes = len(magic) + 8 + 8

// Stats counts cache outcomes since Open.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Corrupt uint64 // subset of Misses: entries evicted on a failed verify
}

// Cache is a directory of verified checkpoint entries. The zero value and
// the nil pointer are valid "no cache" caches: Get always misses and Put
// is a no-op, so callers thread an optional *Cache without nil checks.
// Methods are safe for concurrent use; concurrent Puts of the same key are
// idempotent (last atomic rename wins, both writing identical content).
// The stat counters sit behind a mutex, not atomics: every bump is
// adjacent to file I/O, so contention is irrelevant.
type Cache struct {
	dir   string
	mu    sync.Mutex
	stats Stats
}

// Open returns a cache rooted at dir, creating the directory if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckptcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory ("" for the no-cache cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Stats returns a snapshot of the hit/miss/corruption counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// count applies one outcome to the stat counters.
func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

func payloadHash(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// Get returns the verified payload for key, or (nil, false) on any miss —
// including a present-but-corrupt entry, which is evicted so the slot
// heals on the next Put. Corruption is never an error: the contract is
// that a damaged cache degrades to re-simulation.
func (c *Cache) Get(key Key) ([]byte, bool) {
	if c == nil || c.dir == "" {
		return nil, false
	}
	path := filepath.Join(c.dir, key.Name())
	data, err := os.ReadFile(path)
	if err != nil {
		c.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	payload, ok := verify(data, key.ID())
	if !ok {
		// Evict: a corrupt entry must not be offered again.
		os.Remove(path)
		c.count(func(s *Stats) { s.Corrupt++; s.Misses++ })
		return nil, false
	}
	c.count(func(s *Stats) { s.Hits++ })
	return payload, true
}

// verify checks the framing and content hash, returning the payload.
func verify(data []byte, wantID uint64) ([]byte, bool) {
	if len(data) < headerBytes || string(data[:len(magic)]) != magic {
		return nil, false
	}
	id := binary.LittleEndian.Uint64(data[len(magic):])
	sum := binary.LittleEndian.Uint64(data[len(magic)+8:])
	payload := data[headerBytes:]
	if id != wantID || payloadHash(payload) != sum {
		return nil, false
	}
	return payload, true
}

// Put stores payload under key. Failures are returned but are safe to
// ignore: a failed Put only costs a future re-simulation. The write is
// atomic (temp file + rename), so a reader never observes a partial entry
// and a crash mid-Put leaves at most a stale temp file.
func (c *Cache) Put(key Key, payload []byte) error {
	if c == nil || c.dir == "" {
		return nil
	}
	buf := make([]byte, headerBytes+len(payload))
	copy(buf, magic)
	binary.LittleEndian.PutUint64(buf[len(magic):], key.ID())
	binary.LittleEndian.PutUint64(buf[len(magic)+8:], payloadHash(payload))
	copy(buf[headerBytes:], payload)

	tmp, err := os.CreateTemp(c.dir, key.Name()+".tmp*")
	if err != nil {
		return fmt.Errorf("ckptcache: %w", err)
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckptcache: writing %s: write=%v close=%v", key.Name(), werr, cerr)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(c.dir, key.Name())); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckptcache: %w", err)
	}
	return nil
}
