package ckptcache

import (
	"os"
	"path/filepath"
	"testing"
)

func testKey() Key {
	return Key{Workload: "sieve@1024", ConfigPrefix: "cpu=atomic mode=se", FormatVersion: 1, Tick: 123456}
}

func TestRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	payload := []byte(`{"version":1,"fake":"checkpoint"}`)
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want payload back", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 0 corrupt", st)
	}
}

// TestBitFlipEvicted is the acceptance-criteria property: a bit-flipped
// entry must be detected by the content hash, reported as a miss, and
// removed — never returned as a payload.
func TestBitFlipEvicted(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey()
	payload := []byte(`{"version":1,"mem":{"size":4096}}`)
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every byte position in turn: header, hashes, payload
	// — all must be caught.
	for pos := 0; pos < len(raw); pos++ {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x10
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(key); ok {
			t.Fatalf("bit flip at byte %d not detected; Get returned %q", pos, got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry at byte %d not evicted", pos)
		}
	}
	if st := c.Stats(); st.Corrupt != uint64(len(raw)) {
		t.Fatalf("corrupt count %d, want %d", st.Corrupt, len(raw))
	}
}

func TestTruncatedEvicted(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey()
	if err := c.Put(key, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Name())
	raw, _ := os.ReadFile(path)
	for _, n := range []int{0, 3, len(magic), headerBytes - 1, headerBytes, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

// TestKeyMismatchRejected: an entry copied or renamed onto another key's
// file name carries the wrong embedded key ID and must miss.
func TestKeyMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	a := testKey()
	b := testKey()
	b.Tick++
	if err := c.Put(a, []byte("checkpoint-for-a")); err != nil {
		t.Fatal(err)
	}
	// Masquerade a's entry as b's.
	raw, _ := os.ReadFile(filepath.Join(dir, a.Name()))
	if err := os.WriteFile(filepath.Join(dir, b.Name()), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(b); ok {
		t.Fatal("entry with mismatched key ID accepted")
	}
}

func TestKeyDerivation(t *testing.T) {
	base := testKey()
	vary := []Key{
		{Workload: "other@1024", ConfigPrefix: base.ConfigPrefix, FormatVersion: base.FormatVersion, Tick: base.Tick},
		{Workload: base.Workload, ConfigPrefix: "cpu=atomic mode=fs", FormatVersion: base.FormatVersion, Tick: base.Tick},
		{Workload: base.Workload, ConfigPrefix: base.ConfigPrefix, FormatVersion: 2, Tick: base.Tick},
		{Workload: base.Workload, ConfigPrefix: base.ConfigPrefix, FormatVersion: base.FormatVersion, Tick: base.Tick + 1},
	}
	for i, k := range vary {
		if k.ID() == base.ID() {
			t.Errorf("variant %d collides with base key", i)
		}
	}
	// Length-prefixing: shifting bytes between fields must change the ID.
	shifted := Key{Workload: base.Workload + "c", ConfigPrefix: base.ConfigPrefix[1:],
		FormatVersion: base.FormatVersion, Tick: base.Tick}
	shifted2 := base
	shifted2.Workload, shifted2.ConfigPrefix = base.Workload, base.ConfigPrefix
	if shifted.ID() == base.ID() {
		t.Error("field-boundary shift collides")
	}
	if base.ID() != shifted2.ID() {
		t.Error("identical keys disagree")
	}
	if base.Name() != shifted2.Name() {
		t.Error("identical keys name different files")
	}
}

// TestNilSafety: the nil cache is the documented "no cache" mode.
func TestNilSafety(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(testKey()); ok {
		t.Fatal("nil cache hit")
	}
	if err := c.Put(testKey(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if c.Dir() != "" || c.Stats() != (Stats{}) {
		t.Fatal("nil cache leaked state")
	}
}

func TestPutOverwrites(t *testing.T) {
	c, _ := Open(t.TempDir())
	key := testKey()
	if err := c.Put(key, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || string(got) != "second" {
		t.Fatalf("Get after overwrite = %q, %v", got, ok)
	}
}
