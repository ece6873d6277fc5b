// Package guest provides the simulated machine's physical memory and the
// program loader. Data lives here functionally; the timing of accesses is
// modeled separately by internal/mem.
package guest

import (
	"encoding/binary"
	"fmt"

	"gem5prof/internal/isa"
)

// PageBytes is the granularity of the sparse backing store.
const PageBytes = 4096

// leafPages is the fan-out of the page table's second level.
const leafPages = 64

type page = [PageBytes]byte

// Memory is a sparse physical memory of a fixed size. The zero page is
// shared implicitly: unwritten pages read as zero.
//
// Pages hang off a two-level radix table indexed by page number: one table
// slot per leafPages pages, one leaf pointer per page, leaves and pages
// allocated on first write (the default 16 MiB is 64 leaves of 64 pages).
// Walking it visits pages in address order. Two levels, not one flat slice,
// so that a guest touching a few pages does not pay for a pointer to every
// page it could have touched (DESIGN.md §18).
type Memory struct {
	size    uint32
	table   []*[leafPages]*page
	touched int // pages allocated

	// hostBase is the synthetic host address of the backing store, used to
	// attribute host-level data traffic to guest memory.
	hostBase uint64
}

// NewMemory returns a memory of size bytes (rounded up to a whole page).
func NewMemory(size uint32) *Memory {
	if size == 0 {
		panic("guest: zero-size memory")
	}
	size = (size + PageBytes - 1) &^ (PageBytes - 1)
	leaves := (size/PageBytes + leafPages - 1) / leafPages
	return &Memory{size: size, table: make([]*[leafPages]*page, leaves)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// SetHostBase records the synthetic host address of the backing store.
func (m *Memory) SetHostBase(base uint64) { m.hostBase = base }

// HostAddr translates a guest physical address to its synthetic host
// address for the host data-traffic model.
func (m *Memory) HostAddr(addr uint32) uint64 { return m.hostBase + uint64(addr) }

// AccessError reports an out-of-range guest access.
type AccessError struct {
	Addr  uint32
	Size  int
	Write bool
}

func (e *AccessError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("guest: %s of %d bytes at %#x outside physical memory", kind, e.Size, e.Addr)
}

// sizeMask covers the low size (1..8) bytes of a word.
func sizeMask(size int) uint64 { return ^uint64(0) >> (64 - 8*uint(size)) }

func (m *Memory) check(addr uint32, size int, write bool) error {
	if size <= 0 || size > 8 {
		return &AccessError{Addr: addr, Size: size, Write: write}
	}
	end := uint64(addr) + uint64(size)
	if end > uint64(m.size) {
		return &AccessError{Addr: addr, Size: size, Write: write}
	}
	return nil
}

// page returns the page holding addr (which the caller has bounds-checked),
// or nil if it was never written and alloc is false.
func (m *Memory) page(addr uint32, alloc bool) *page {
	idx := addr / PageBytes
	leaf := m.table[idx/leafPages]
	if leaf == nil {
		if !alloc {
			return nil
		}
		leaf = new([leafPages]*page)
		m.table[idx/leafPages] = leaf
	}
	p := leaf[idx%leafPages]
	if p == nil && alloc {
		p = new(page)
		leaf[idx%leafPages] = p
		m.touched++
	}
	return p
}

// Read loads size bytes (1..8) little-endian at addr, zero-extended.
func (m *Memory) Read(addr uint32, size int) (uint64, error) {
	if err := m.check(addr, size, false); err != nil {
		return 0, err
	}
	if off := addr % PageBytes; off <= PageBytes-8 {
		// Eight bytes at addr lie in one page: one load, masked to size.
		p := m.page(addr, false)
		if p == nil {
			return 0, nil
		}
		return binary.LittleEndian.Uint64(p[off:]) & sizeMask(size), nil
	}
	// The last bytes of a page, and accesses that straddle two, go bytewise.
	var v uint64
	for i := size - 1; i >= 0; i-- {
		a := addr + uint32(i)
		var b byte
		if p := m.page(a, false); p != nil {
			b = p[a%PageBytes]
		}
		v = v<<8 | uint64(b)
	}
	return v, nil
}

// Write stores the low size bytes (1..8) of v little-endian at addr.
func (m *Memory) Write(addr uint32, size int, v uint64) error {
	if err := m.check(addr, size, true); err != nil {
		return err
	}
	if off := addr % PageBytes; off <= PageBytes-8 {
		b, mask := m.page(addr, true)[off:], sizeMask(size)
		binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)&^mask|v&mask)
		return nil
	}
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		m.page(a, true)[a%PageBytes] = byte(v >> (8 * i))
	}
	return nil
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (m *Memory) ReadBytes(addr uint32, dst []byte) error {
	if uint64(addr)+uint64(len(dst)) > uint64(m.size) {
		return &AccessError{Addr: addr, Size: len(dst)}
	}
	for len(dst) > 0 {
		off := addr % PageBytes
		n := min(len(dst), int(PageBytes-off))
		if p := m.page(addr, false); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst, addr = dst[n:], addr+uint32(n)
	}
	return nil
}

// WriteBytes copies src into memory starting at addr.
func (m *Memory) WriteBytes(addr uint32, src []byte) error {
	if uint64(addr)+uint64(len(src)) > uint64(m.size) {
		return &AccessError{Addr: addr, Size: len(src), Write: true}
	}
	for len(src) > 0 {
		off := addr % PageBytes
		n := copy(m.page(addr, true)[off:], src)
		src, addr = src[n:], addr+uint32(n)
	}
	return nil
}

// FetchWord reads one aligned instruction word at pc.
func (m *Memory) FetchWord(pc uint32) (isa.Word, error) {
	if pc%isa.InstBytes != 0 {
		return 0, fmt.Errorf("guest: misaligned fetch at %#x", pc)
	}
	v, err := m.Read(pc, isa.InstBytes)
	if err != nil {
		return 0, err
	}
	return isa.Word(v), nil
}

// TouchedPages returns how many distinct pages have been written.
func (m *Memory) TouchedPages() int { return m.touched }

// eachPage calls f for every written page in address order.
func (m *Memory) eachPage(f func(idx uint32, p *page)) {
	for i, leaf := range m.table {
		if leaf == nil {
			continue
		}
		for j, p := range leaf {
			if p != nil {
				f(uint32(i*leafPages+j), p)
			}
		}
	}
}

// Checksum returns an FNV-1a hash of the memory contents, independent of
// page-allocation history: pages are hashed in address order and all-zero
// pages (allocated or not) contribute nothing, so two memories with equal
// byte contents hash equal even if one touched extra pages with zeroes.
// The conformance lockstep runner diffs final memory images with it.
func (m *Memory) Checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	m.eachPage(func(idx uint32, p *page) {
		if *p == (page{}) {
			return
		}
		// Mix the page address so equal contents at different addresses
		// hash differently.
		for shift := 0; shift < 32; shift += 8 {
			h = (h ^ uint64(byte(idx>>shift))) * prime64
		}
		for _, b := range p {
			h = (h ^ uint64(b)) * prime64
		}
	})
	return h
}

// Load copies an assembled program image into memory.
func (m *Memory) Load(p *isa.Program) error {
	return m.WriteBytes(p.Base, p.Data)
}

// ReadCString reads a NUL-terminated string of at most max bytes at addr.
func (m *Memory) ReadCString(addr uint32, max int) (string, error) {
	var out []byte
	for i := 0; i < max; i++ {
		b, err := m.Read(addr+uint32(i), 1)
		if err != nil {
			return "", err
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, byte(b))
	}
	return string(out), nil
}
