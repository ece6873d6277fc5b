package guest

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// refMemory is the naive model Memory is tested against: one map entry per
// written byte, plus the set of pages any write touched.
type refMemory struct {
	size    uint32
	bytes   map[uint32]byte
	touched map[uint32]bool
}

func newRefMemory(size uint32) *refMemory {
	return &refMemory{size: size, bytes: map[uint32]byte{}, touched: map[uint32]bool{}}
}

func (r *refMemory) scalarErr(addr uint32, size int, write bool) error {
	if size <= 0 || size > 8 || uint64(addr)+uint64(size) > uint64(r.size) {
		return &AccessError{Addr: addr, Size: size, Write: write}
	}
	return nil
}

func (r *refMemory) read(addr uint32, size int) (uint64, error) {
	if err := r.scalarErr(addr, size, false); err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(r.bytes[addr+uint32(i)]) << (8 * i)
	}
	return v, nil
}

func (r *refMemory) put(addr uint32, b byte) {
	r.bytes[addr] = b
	r.touched[addr/PageBytes] = true
}

func (r *refMemory) write(addr uint32, size int, v uint64) error {
	if err := r.scalarErr(addr, size, true); err != nil {
		return err
	}
	for i := 0; i < size; i++ {
		r.put(addr+uint32(i), byte(v>>(8*i)))
	}
	return nil
}

func (r *refMemory) readBytes(addr uint32, dst []byte) error {
	if uint64(addr)+uint64(len(dst)) > uint64(r.size) {
		return &AccessError{Addr: addr, Size: len(dst)}
	}
	for i := range dst {
		dst[i] = r.bytes[addr+uint32(i)]
	}
	return nil
}

func (r *refMemory) writeBytes(addr uint32, src []byte) error {
	if uint64(addr)+uint64(len(src)) > uint64(r.size) {
		return &AccessError{Addr: addr, Size: len(src), Write: true}
	}
	for i, b := range src {
		r.put(addr+uint32(i), b)
	}
	return nil
}

// checksum is Memory.Checksum's definition, computed from the bytes.
func (r *refMemory) checksum() uint64 {
	h := uint64(14695981039346656037)
	for idx := uint32(0); idx < r.size/PageBytes; idx++ {
		if !r.touched[idx] {
			continue
		}
		zero := true
		for off := uint32(0); off < PageBytes; off++ {
			zero = zero && r.bytes[idx*PageBytes+off] == 0
		}
		if zero {
			continue
		}
		for shift := 0; shift < 32; shift += 8 {
			h = (h ^ uint64(byte(idx>>shift))) * 1099511628211
		}
		for off := uint32(0); off < PageBytes; off++ {
			h = (h ^ uint64(r.bytes[idx*PageBytes+off])) * 1099511628211
		}
	}
	return h
}

// sameErr requires both errors nil or both the same AccessError.
func sameErr(got, want error) error {
	var g, w *AccessError
	if errors.As(want, &w) {
		if !errors.As(got, &g) || *g != *w {
			return fmt.Errorf("error %v, want %v", got, want)
		}
		return nil
	}
	if (got == nil) != (want == nil) {
		return fmt.Errorf("error %v, want %v", got, want)
	}
	return nil
}

// refSize is three leaves' worth of pages less a few, so that the last leaf
// is partly out of range and page numbers cross two leaf boundaries.
const refSize = (3*leafPages - 5) * PageBytes

// TestScalarAccessAtPageBoundaries is the case the scalar fast path branches
// on: every size at every offset around a page boundary, at the end of
// memory, and on pages in each state of having been written.
func TestScalarAccessAtPageBoundaries(t *testing.T) {
	const pattern = 0x8877665544332211
	prepare := map[string]func(m *Memory, r *refMemory, boundary uint32){
		"never written": func(*Memory, *refMemory, uint32) {},
		"half written": func(m *Memory, r *refMemory, boundary uint32) {
			// Only the page below the boundary exists.
			_ = m.Write(boundary-16, 8, ^uint64(0))
			_ = r.write(boundary-16, 8, ^uint64(0))
		},
		"written": func(m *Memory, r *refMemory, boundary uint32) {
			fill := make([]byte, 32)
			for i := range fill {
				fill[i] = byte(0xA0 + i)
			}
			if boundary == refSize {
				fill = fill[:16] // nothing above the end of memory
			}
			_ = m.WriteBytes(boundary-16, fill)
			_ = r.writeBytes(boundary-16, fill)
		},
	}
	// A boundary inside a leaf, one between two leaves, and the end of memory.
	for _, boundary := range []uint32{PageBytes, leafPages * PageBytes, refSize} {
		for state, prep := range prepare {
			for _, size := range []int{1, 2, 4, 8} {
				for off := -9; off <= 1; off++ { // -8 is the last offset a whole word fits at
					addr := uint32(int64(boundary) + int64(off))
					name := fmt.Sprintf("%s/boundary=%#x/size=%d/off=%d", state, boundary, size, off)

					m, r := NewMemory(refSize), newRefMemory(refSize)
					prep(m, r, boundary)
					before := m.TouchedPages()
					got, err := m.Read(addr, size)
					want, werr := r.read(addr, size)
					if e := sameErr(err, werr); e != nil {
						t.Errorf("%s: read: %v", name, e)
					}
					if got != want {
						t.Errorf("%s: read %#x, want %#x", name, got, want)
					}
					if m.TouchedPages() != before {
						t.Errorf("%s: a read touched a page", name)
					}

					err, werr = m.Write(addr, size, pattern), r.write(addr, size, pattern)
					if e := sameErr(err, werr); e != nil {
						t.Errorf("%s: write: %v", name, e)
					}
					if boundary == refSize && off+size > 0 && err == nil {
						t.Errorf("%s: write past the end of memory accepted", name)
					}
					if err := r.compare(m); err != nil {
						t.Errorf("%s: after write: %v", name, err)
					}
				}
			}
		}
	}
}

// compare checks every observable of m against the model.
func (r *refMemory) compare(m *Memory) error {
	if got, want := m.TouchedPages(), len(r.touched); got != want {
		return fmt.Errorf("TouchedPages %d, want %d", got, want)
	}
	if got, want := m.Checksum(), r.checksum(); got != want {
		return fmt.Errorf("Checksum %#x, want %#x", got, want)
	}
	// A memory rebuilt from the nonzero bytes alone touches other pages but
	// holds the same contents.
	twin := NewMemory(r.size)
	var some uint32
	for a, b := range r.bytes {
		if b != 0 {
			_ = twin.Write(a, 1, uint64(b))
			some = a
		}
	}
	if !m.Equal(twin) || !twin.Equal(m) {
		return errors.New("Equal is false against a memory with the same bytes")
	}
	_ = twin.Write(some, 1, uint64(r.bytes[some])+1)
	if m.Equal(twin) || twin.Equal(m) {
		return errors.New("Equal is true against a memory with one byte changed")
	}
	got := make([]byte, PageBytes)
	for idx := range r.touched {
		_ = m.ReadBytes(idx*PageBytes, got)
		for off, b := range got {
			if want := r.bytes[idx*PageBytes+uint32(off)]; b != want {
				return fmt.Errorf("byte %#x is %#x, want %#x", idx*PageBytes+uint32(off), b, want)
			}
		}
	}
	return nil
}

// FuzzMemoryEquivalence runs an operation stream decoded from the fuzz input
// against Memory and the naive model, comparing every value and error as it
// goes and every whole-memory observable at the end. An operation is six
// bytes: opcode, three address bytes, a size byte and a value seed; opcodes
// with the high bit set snap the address to just below a page boundary.
func FuzzMemoryEquivalence(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0x10, 4, 0x5a, 0, 0, 0, 0x10, 4, 0}) // the seeds that cross pages are in testdata/fuzz
	f.Fuzz(func(t *testing.T, ops []byte) {
		m, r := NewMemory(refSize), newRefMemory(refSize)
		for len(ops) >= 6 {
			op, a, size, seed := ops[0], uint32(ops[1])<<16|uint32(ops[2])<<8|uint32(ops[3]), int(ops[4]), ops[5]
			ops = ops[6:]
			addr := a % (refSize + 16)
			if op&0x80 != 0 {
				addr = (a%(refSize/PageBytes)+1)*PageBytes - uint32(seed%9)
			}
			v := uint64(seed) * 0x0101010101010101 * 0x9e3779b97f4a7c15
			switch (op & 0x7f) % 7 {
			case 0:
				got, err := m.Read(addr, size%10)
				want, werr := r.read(addr, size%10)
				if e := sameErr(err, werr); e != nil || got != want {
					t.Fatalf("Read(%#x, %d) = %#x, %v; want %#x (%v)", addr, size%10, got, err, want, e)
				}
			case 1:
				if e := sameErr(m.Write(addr, size%10, v), r.write(addr, size%10, v)); e != nil {
					t.Fatalf("Write(%#x, %d): %v", addr, size%10, e)
				}
			case 2:
				got, want := make([]byte, size*37), make([]byte, size*37)
				if e := sameErr(m.ReadBytes(addr, got), r.readBytes(addr, want)); e != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("ReadBytes(%#x, %d) differs (%v)", addr, len(got), e)
				}
			case 3:
				src := make([]byte, size*37)
				for i := range src {
					src[i] = seed + byte(i)
				}
				if e := sameErr(m.WriteBytes(addr, src), r.writeBytes(addr, src)); e != nil {
					t.Fatalf("WriteBytes(%#x, %d): %v", addr, len(src), e)
				}
			case 4:
				got, err := m.FetchWord(addr)
				want, werr := r.read(addr, 4)
				if addr%4 != 0 {
					if err == nil {
						t.Fatalf("FetchWord(%#x) accepted a misaligned pc", addr)
					}
				} else if e := sameErr(err, werr); e != nil || uint64(got) != want {
					t.Fatalf("FetchWord(%#x) = %#x, %v; want %#x (%v)", addr, got, err, want, e)
				}
			case 5:
				back, err := RestoreMemory(m.Snapshot())
				if err != nil {
					t.Fatalf("RestoreMemory(Snapshot): %v", err)
				}
				if !back.Equal(m) || back.TouchedPages() != m.TouchedPages() {
					t.Fatal("a restored snapshot is not the memory it was taken from")
				}
				m = back
			case 6:
				fresh := NewMemory(refSize)
				_ = fresh.Write(addr%refSize, 1, 0xff) // must not survive the load
				if err := fresh.LoadImage(m.Snapshot()); err != nil {
					t.Fatalf("LoadImage(Snapshot): %v", err)
				}
				m = fresh
			}
		}
		if err := r.compare(m); err != nil {
			t.Fatal(err)
		}
	})
}
