package hostmodel

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"strings"
	"testing"
	"unsafe"

	"gem5prof/internal/sim"
)

// hashSink folds every argument of every Sink call, in order, into an
// FNV-64a: the whole stream the code model emits, bit for bit.
type hashSink struct {
	h   hash.Hash64
	buf []byte
}

func (s *hashSink) put(kind byte, vs ...uint64) {
	s.buf = append(s.buf[:0], kind)
	for _, v := range vs {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
	}
	s.h.Write(s.buf)
}

func (s *hashSink) FetchBlock(addr uint64, bytes, uops uint32) {
	s.put('f', addr, uint64(bytes), uint64(uops))
}
func (s *hashSink) Branch(pc, target uint64, taken, indirect bool) {
	s.put('b', pc, target, b2u(taken), b2u(indirect))
}
func (s *hashSink) Data(addr uint64, size uint32, write bool) {
	s.put('d', addr, uint64(size), b2u(write))
}

// TestStreamPinned pins what the code model emits for a fixed registration
// sequence: leaf, direct, virtual and polymorphic functions, two dispatch
// hubs of more than 3000 bytes, each with its helpers, in the default and
// the -O3 build. Every function, helpers included, is called 64 times from
// the top, so every trace and every rotation of the taken patterns runs, and
// the primaries' calls run their helpers below them. The digest was
// recorded before traces were stored relative to their function, and a
// change to how a step is encoded must leave it where it is.
func TestStreamPinned(t *testing.T) {
	seq := []reg{
		{"Leaf::get", 120, sim.FuncLeaf},
		{"Tiny::f", 10, 0},
		{"Direct::f", 900, 0},
		{"Obj::virt", 1400, sim.FuncVirtual},
		{"Obj::poly", 1900, sim.FuncVirtual | sim.FuncPoly},
		{"Hub::tick", 5200, sim.FuncVirtual},
		{"Hub::dispatch", 9100, sim.FuncVirtual | sim.FuncPoly},
		{"Direct::f", 900, 0}, // a repeat names the first
	}
	sink := &hashSink{h: fnv.New64a()}
	for _, sf := range []float64{1.0, 0.93} {
		cfg := DefaultConfig()
		cfg.SizeFactor = sf
		m := New(cfg, sink)
		for _, r := range seq {
			m.RegisterFunc(r.name, r.bytes, r.flags)
		}
		for round := 0; round < 64; round++ {
			for fn := 1; fn < m.NumFuncs(); fn++ {
				m.Call(sim.FuncID(fn))
			}
		}
	}
	const want uint64 = 0xc943a13df6a320b8
	if got := sink.h.Sum64(); got != want {
		t.Errorf("stream digest %#x, want %#x", got, want)
	}
}

// TestStepAndHeaderSizes: a step is 16 bytes and a function header at most
// 56, which is what a kept layout costs per block and per function.
func TestStepAndHeaderSizes(t *testing.T) {
	if got := unsafe.Sizeof(traceStep{}); got != 16 {
		t.Errorf("a traceStep takes %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(fnLayout{}); got > 56 {
		t.Errorf("an fnLayout takes %d bytes, want at most 56", got)
	}
}

// TestBadRegistrationsPanic: a function no layout can hold ends in a panic
// that names it, before anything is placed: a negative size, a size that
// scaled by SizeFactor exceeds a uint32, and a trace with more call sites
// than a step can name.
func TestBadRegistrationsPanic(t *testing.T) {
	for _, tc := range []struct {
		name      string
		codeBytes int
		factor    float64
		want      string
	}{
		{"Neg::f", -1, 1, `RegisterFunc("Neg::f", -1): negative code size`},
		{"Huge::f", 1 << 32, 1, `RegisterFunc("Huge::f", 4294967296): 4294967296 bytes at SizeFactor 1 do not fit`},
		{"Scaled::f", 3 << 30, 1.5, `RegisterFunc("Scaled::f", 3221225472): 3221225472 bytes at SizeFactor 1.5 do not fit`},
		{"Calls::f", 64 << 20, 1, `RegisterFunc("Calls::f", 67108864): more than 65535 call sites in one trace`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(Config{SizeFactor: tc.factor}, &recordSink{})
			n := m.NumFuncs()
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("panicked with %v, want an error containing %q", err, tc.want)
				}
				if m.NumFuncs() != n || len(m.lay.log) != 0 {
					t.Errorf("the refused function was placed: %d functions, %d registrations", m.NumFuncs(), len(m.lay.log))
				}
			}()
			m.RegisterFunc(tc.name, tc.codeBytes, sim.FuncLeaf)
		})
	}
}

// TestRegionsPastTheLimitPanic: a region AllocData would place, or a
// function placed past a full arena, that reaches AddrLimit is refused by
// name, as Validate refuses a config whose fixed regions reach it.
func TestRegionsPastTheLimitPanic(t *testing.T) {
	refused := func(want string, fn func()) {
		t.Helper()
		defer func() {
			if err, _ := recover().(error); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("panicked with %v, want an error containing %q", err, want)
			}
		}()
		fn()
	}
	heap := New(Config{HeapBase: AddrLimit - 4096 - (24<<20 + 1<<20)}, &recordSink{})
	if base := heap.AllocData("regs", 64); base != AddrLimit-4096 {
		t.Fatalf("the first region is at %#x, want %#x", base, uint64(AddrLimit-4096))
	}
	refused(`AllocData("guest.ram", 4032): the region at 0x7ffffffff040 reaches 2^47`,
		func() { heap.AllocData("guest.ram", 4096-64) })

	text := New(Config{TextBase: AddrLimit - 512 - 2*128, TextSlots: 2, SlotBytes: 128}, &recordSink{})
	refused(`RegisterFunc("Big::f", 1000): placed at 0x7ffffffffe00, its 1000 bytes reach 2^47`,
		func() { text.RegisterFunc("Big::f", 1000, sim.FuncLeaf) })
}
