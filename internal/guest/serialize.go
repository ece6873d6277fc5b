package guest

import (
	"encoding/base64"
	"fmt"
	"sort"
	"strconv"
)

// MemoryImage is the serializable form of a Memory: only touched pages are
// stored, base64-encoded, keyed by page index. It matches gem5's readable
// checkpoint philosophy (the paper relies on checkpoints taken on one
// platform being restored on another).
type MemoryImage struct {
	Size  uint32            `json:"size"`
	Pages map[string]string `json:"pages"`
}

// Snapshot captures all touched pages.
func (m *Memory) Snapshot() MemoryImage {
	img := MemoryImage{Size: m.size, Pages: make(map[string]string, m.touched)}
	m.eachPage(func(idx uint32, p *page) {
		img.Pages[strconv.FormatUint(uint64(idx), 10)] = base64.StdEncoding.EncodeToString(p[:])
	})
	return img
}

// decodePage validates one snapshot entry and returns its page index and
// raw contents. Keys must be canonical decimal (a non-canonical spelling
// like "07" or "7x" could alias another entry's page, making the restored
// contents depend on map-iteration order), and payloads must decode to
// exactly one page.
func decodePage(key, data string, size uint32) (uint32, []byte, error) {
	idx64, err := strconv.ParseUint(key, 10, 32)
	if err != nil || strconv.FormatUint(idx64, 10) != key {
		return 0, nil, fmt.Errorf("guest: bad page key %q", key)
	}
	idx := uint32(idx64)
	if idx64*PageBytes >= uint64(size) {
		return 0, nil, fmt.Errorf("guest: page %d outside memory", idx)
	}
	raw, err := base64.StdEncoding.DecodeString(data)
	if err != nil {
		return 0, nil, fmt.Errorf("guest: page %d: %w", idx, err)
	}
	if len(raw) != PageBytes {
		return 0, nil, fmt.Errorf("guest: page %d has %d bytes, want %d", idx, len(raw), PageBytes)
	}
	return idx, raw, nil
}

// Validate checks the image's structural invariants without materializing
// a Memory: a nonzero size, canonical page keys inside the declared size,
// and page payloads of exactly one page each. RestoreMemory re-applies the
// same checks; Validate lets checkpoint decoding fail closed before any
// state is touched.
func (img MemoryImage) Validate() error {
	if img.Size == 0 {
		return fmt.Errorf("guest: snapshot has zero size")
	}
	keys := make([]string, 0, len(img.Pages))
	//lint:deterministic keys are sorted before use
	for k := range img.Pages {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, _, err := decodePage(key, img.Pages[key], img.Size); err != nil {
			return err
		}
	}
	return nil
}

// RestoreMemory rebuilds a Memory from a snapshot.
func RestoreMemory(img MemoryImage) (*Memory, error) {
	if img.Size == 0 {
		return nil, fmt.Errorf("guest: snapshot has zero size")
	}
	m := NewMemory(img.Size)
	//lint:deterministic canonical keys make per-page writes disjoint, so they commute
	for key, data := range img.Pages {
		idx, raw, err := decodePage(key, data, m.size)
		if err != nil {
			return nil, err
		}
		copy(m.page(idx*PageBytes, true)[:], raw)
	}
	return m, nil
}

// LoadImage replaces this memory's contents in place with the snapshot.
// Sizes must match (the snapshot was taken from an identically configured
// machine).
func (m *Memory) LoadImage(img MemoryImage) error {
	restored, err := RestoreMemory(img)
	if err != nil {
		return err
	}
	if restored.size != m.size {
		return fmt.Errorf("guest: snapshot size %d != memory size %d", restored.size, m.size)
	}
	m.table, m.touched = restored.table, restored.touched
	return nil
}

// Equal reports whether two memories have identical contents (zero pages
// compare equal to absent pages). Used by checkpoint tests.
func (m *Memory) Equal(o *Memory) bool {
	if m.size != o.size {
		return false
	}
	zero := page{}
	for idx := uint32(0); idx < m.size/PageBytes; idx++ {
		a, b := m.page(idx*PageBytes, false), o.page(idx*PageBytes, false)
		if a == nil {
			a = &zero
		}
		if b == nil {
			b = &zero
		}
		if a != b && *a != *b {
			return false
		}
	}
	return true
}
