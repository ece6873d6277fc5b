// Package hostmodel implements the host code model: it maps the guest
// simulator's execution (function calls, data touches) onto a synthetic
// host-level instruction/branch/data stream that a host micro-architecture
// model consumes online.
//
// The model captures the properties of gem5-as-an-application that the
// reproduced paper identifies as decisive: a very large instruction
// footprint spread over thousands of functions, deep call chains with
// virtual (indirect) dispatch, little code reuse, and data traffic
// dominated by simulator metadata plus the guest memory image.
package hostmodel

import (
	"fmt"
	"math/bits"
	"slices"

	"gem5prof/internal/sim"
)

// Sink consumes the synthetic host micro-event stream. It is implemented by
// uarch.Machine and by test doubles.
type Sink interface {
	// FetchBlock models sequential execution of code at addr: bytes of
	// machine code decoding to uops micro-ops.
	FetchBlock(addr uint64, bytes uint32, uops uint32)
	// Branch models one executed branch at pc.
	Branch(pc, target uint64, taken, indirect bool)
	// Data models one data access.
	Data(addr uint64, size uint32, write bool)
}

// Profiler observes function-level execution (implemented by
// profiler.Profiler); may be nil.
type Profiler interface {
	// Enter is called when fn starts executing, Leave when it returns.
	Enter(fn sim.FuncID)
	Leave(fn sim.FuncID)
}

// Config parameterizes the code model.
type Config struct {
	// TextBase is the virtual address of the simulator's code segment.
	TextBase uint64
	// TextSlots and SlotBytes define the code arena: functions are placed
	// bit-reversed across TextSlots slots of SlotBytes each, modeling how
	// a gem5-sized binary scatters a dynamic path across a huge text
	// segment (the root of the paper's iTLB findings). TextSlots must be a
	// power of two.
	TextSlots int
	SlotBytes uint64
	// HeapBase is where AllocData regions start; HeapPoolBytes is the
	// allocator-churn pool the simulator walks while building packets and
	// events.
	HeapBase      uint64
	HeapPoolBytes uint64
	// StackBase is the host stack region (hot).
	StackBase uint64
	// SizeFactor scales every function's code size (0.93 models the
	// paper's -O3 build shrinking the binary; 1.0 is the default build).
	// Static shrinkage mostly reduces the footprint; the dynamic uop count
	// moves far less (dead code elimination does not run), which is why
	// the paper's -O3 gains are only ~1%.
	SizeFactor float64
	// DynFactor scales dynamic uops independently of SizeFactor; 0 derives
	// it as 1 - (1-SizeFactor)/4.
	DynFactor float64
	// CalleeFanout is how many synthetic helper callees a primary function
	// owns (accessors, std:: internals, packet plumbing). The paper's
	// Fig. 15 function counts are reached through these.
	CalleeFanout int
	// CalleesPerCall is how many helpers one invocation actually calls.
	CalleesPerCall int
}

// DefaultConfig mirrors a gem5.opt-like binary layout: a 128MB text arena
// and tens of MB of allocator-churned heap.
func DefaultConfig() Config {
	return Config{
		TextBase:       0x0000_0000_0040_0000,
		TextSlots:      8192,
		SlotBytes:      16 << 10,
		HeapBase:       0x0000_7f00_0000_0000,
		HeapPoolBytes:  24 << 20,
		StackBase:      0x0000_7fff_ff00_0000,
		SizeFactor:     1.0,
		CalleeFanout:   12,
		CalleesPerCall: 2,
	}
}

// Normalized returns the config a code model actually runs: every zero
// field takes DefaultConfig's value, and a zero DynFactor is derived from
// SizeFactor. There is no other place defaults are filled in, so two
// spellings of one binary — Config{}, Config{SizeFactor: 1} and
// DefaultConfig() — normalise to equal values and share one layout.
func (c Config) Normalized() Config {
	d := DefaultConfig()
	if c.TextBase == 0 {
		c.TextBase = d.TextBase
	}
	if c.TextSlots == 0 {
		c.TextSlots = d.TextSlots
	}
	if c.SlotBytes == 0 {
		c.SlotBytes = d.SlotBytes
	}
	if c.HeapBase == 0 {
		c.HeapBase = d.HeapBase
	}
	if c.HeapPoolBytes == 0 {
		c.HeapPoolBytes = d.HeapPoolBytes
	}
	if c.StackBase == 0 {
		c.StackBase = d.StackBase
	}
	if c.SizeFactor == 0 {
		c.SizeFactor = d.SizeFactor
	}
	if c.DynFactor == 0 {
		c.DynFactor = 1 - (1-c.SizeFactor)/4
	}
	if c.CalleeFanout == 0 {
		c.CalleeFanout = d.CalleeFanout
	}
	if c.CalleesPerCall == 0 {
		c.CalleesPerCall = d.CalleesPerCall
	}
	return c
}

// maxUopScale bounds DynFactor/SizeFactor, the factor buildTraces scales a
// block's micro-ops by: a block of 47 bytes then decodes to at most about
// 1.4e7 uops, far inside a traceStep's uint32.
const maxUopScale = 1 << 20

// Validate reports what New would panic on, for the normalised config: an
// arena that is not a power-of-two number of power-of-two slots (placeFunc
// staggers with SlotBytes/2-1 as a mask over 64-byte steps, hence the 128
// byte floor), a negative (or NaN) factor or count, or a DynFactor so far
// above SizeFactor that a block's uop count would overflow.
func (c Config) Validate() error {
	c = c.Normalized()
	switch {
	case c.TextSlots < 0 || c.TextSlots&(c.TextSlots-1) != 0:
		return fmt.Errorf("hostmodel: TextSlots must be a power of two (got %d)", c.TextSlots)
	case c.SlotBytes < 128 || c.SlotBytes&(c.SlotBytes-1) != 0:
		return fmt.Errorf("hostmodel: SlotBytes must be a power of two >= 128 (got %d)", c.SlotBytes)
	case !(c.SizeFactor > 0) || !(c.DynFactor > 0):
		return fmt.Errorf("hostmodel: SizeFactor and DynFactor must not be negative (got %g, %g)",
			c.SizeFactor, c.DynFactor)
	case !(c.DynFactor/c.SizeFactor <= maxUopScale):
		return fmt.Errorf("hostmodel: DynFactor/SizeFactor must be at most %d (got %g/%g)",
			maxUopScale, c.DynFactor, c.SizeFactor)
	case c.CalleeFanout < 0 || c.CalleesPerCall < 0:
		return fmt.Errorf("hostmodel: CalleeFanout and CalleesPerCall must not be negative (got %d, %d)",
			c.CalleeFanout, c.CalleesPerCall)
	}
	return nil
}

// traceStep is one basic block of a function's dynamic execution path. It
// is placed relative to its function, so that a step takes 16 bytes and a
// layout, which is kept and shared, holds no address twice:
//
//   - off is the block's offset from fnLayout.addr, below the function's
//     size, which is a uint32.
//   - br is the branch target's offset from the block, 0 for a block that
//     only falls through. A branch goes 0–255 bytes past the end of its
//     block, whose 1–47 bytes (32 for the fallback step) are in bytes, so
//     a real branch is 1–302 bytes away and never reads as 0.
//   - uops is the block's micro-op count: at most 1 + 47/bytesPerUop times
//     DynFactor/SizeFactor, which Validate bounds by maxUopScale.
//   - callee is the call slot this block invokes after it runs, noCallee
//     for none; RegisterFunc refuses a function with more slots than that.
type traceStep struct {
	off      uint32
	uops     uint32
	br       uint16
	callee   uint16
	bytes    uint8
	pat      uint8 // taken pattern bits, rotated per call
	indirect bool
}

// noCallee is the callee of a step that calls nothing.
const noCallee = 1<<16 - 1

// fnLayout is the static model of one registered function: everything about
// it that is fixed once it is placed. Nothing writes to it afterwards, so
// every code model that runs the same binary can read the same copy (see
// Layout); what changes from call to call lives in CodeModel's rotor and
// called tables.
//
// A function has no name of its own here. A primary's is in the layout's
// registration log, and a helper is helper number fn-owner-1 of the primary
// owner, which FuncName spells out on demand: only a profile listing reads a
// name, and a kept layout should not carry five thousand strings for it.
type fnLayout struct {
	addr uint64
	// steps are the function's three traces back to back: trace 0 ends at
	// cuts[0], trace 1 at cuts[1] and trace 2 at the end.
	steps []traceStep
	cuts  [2]uint32
	owner sim.FuncID // 0 for a primary
	size  uint32
	// helpers is how many helper callees follow a primary: place lays them
	// out right behind it, so they are the functions fn+1 … fn+helpers.
	helpers uint32
	flags   sim.FuncFlags
}

// CodeModel implements sim.Tracer, translating simulator activity into host
// micro-events. The synthetic binary it executes is a Layout, which it
// either builds itself or follows (layout.go); the replay state — call
// counters, rotors, the heap cursor — is its own.
type CodeModel struct {
	cfg      Config
	sink     Sink
	prof     Profiler
	slotBits uint

	// lay is the layout in use and pos how many of its registrations this
	// run has made; funcs and cur are the binary as far as pos: the
	// functions registered so far and the placement cursor after them.
	lay   *Layout
	pos   int
	funcs []fnLayout
	cur   cursor
	// While following, cands are the published layouts that recorded every
	// registration made so far (lay is the first of them). owned means lay
	// is this model's private copy instead, which registrations append to;
	// byName then maps a name to the log index of its first registration.
	cands  []*Layout
	owned  bool
	byName map[string]int

	scratch []traceStep // buildTraces' work area
	nameBuf []byte      // place's, for helper names
	// rotor is each function's per-call trace/pattern rotation, indexed by
	// FuncID and at most len(funcs) long: Call grows it to len(funcs) when
	// an id lies past it, so its size follows the binary the model runs and
	// nothing else. Bit fn of called is set once fn has run, across
	// ResetRun boundaries, and called has a word for every 64 entries of
	// rotor.
	rotor     []uint32
	called    []uint64
	calls     uint64
	statCalls uint64 // calls retired before the last ResetRun
	stackHot  uint64
	heapPool  uint64
	heapEnd   uint64
}

// New builds a code model feeding sink that lays out a binary of its own,
// shared with nobody. It panics on a config Validate rejects.
func New(cfg Config, sink Sink) *CodeModel { return newModel(cfg, sink, nil) }

// newModel builds a code model that follows cands, published layouts of
// cfg's normalised form, for as long as its registrations agree with one.
func newModel(cfg Config, sink Sink, cands []*Layout) *CodeModel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.Normalized()
	m := &CodeModel{
		cfg:      cfg,
		sink:     sink,
		stackHot: cfg.StackBase,
		// The allocator pool sits at the start of the heap, followed by a
		// 1MB reservation for the resident SimObject set.
		heapPool: cfg.HeapBase,
		heapEnd:  cfg.HeapBase + cfg.HeapPoolBytes + (1 << 20),
	}
	for s := cfg.TextSlots; s > 1; s >>= 1 {
		m.slotBits++
	}
	if len(cands) == 0 {
		cands = []*Layout{emptyLayout(cfg)}
	}
	m.rewind(cands)
	return m
}

// placeFunc returns the address for the next function of size bytes,
// scattering sequential registrations across the arena by bit-reversing the
// slot index (a deterministic stand-in for link-order dispersion).
func (m *CodeModel) placeFunc(size uint32) uint64 {
	// Stagger start offsets within the slot so that slot-aligned placement
	// does not alias every function onto the same cache sets.
	stagger := (uint64(m.cur.nextSlot) * 2654435761 >> 7) & (m.cfg.SlotBytes/2 - 1) &^ 63
	if uint64(size)+stagger > m.cfg.SlotBytes || m.cur.nextSlot >= m.cfg.TextSlots {
		addr := m.cur.overflow
		m.cur.overflow += (uint64(size) + 15) &^ 15
		return addr
	}
	slot := bitReverse(uint64(m.cur.nextSlot), m.slotBits)
	m.cur.nextSlot++
	return m.cfg.TextBase + slot*m.cfg.SlotBytes + stagger
}

func bitReverse(v uint64, bits uint) uint64 {
	var out uint64
	for i := uint(0); i < bits; i++ {
		out = out<<1 | (v>>i)&1
	}
	return out
}

// SetProfiler attaches a function profiler.
func (m *CodeModel) SetProfiler(p Profiler) { m.prof = p }

// TextBytes returns the total size of the synthetic text segment.
func (m *CodeModel) TextBytes() uint64 { return m.textEnd() - m.cfg.TextBase }

// TextRange returns the [base,end) of the text segment for page mapping.
func (m *CodeModel) TextRange() (uint64, uint64) { return m.cfg.TextBase, m.textEnd() }

// textEnd covers the whole arena: bit-reversed placement scatters even the
// first registrations across it.
func (m *CodeModel) textEnd() uint64 {
	if arenaEnd := m.cfg.arenaEnd(); m.cur.overflow < arenaEnd {
		return arenaEnd
	}
	return m.cur.overflow
}

func (c *Config) arenaEnd() uint64 { return c.TextBase + uint64(c.TextSlots)*c.SlotBytes }

// NumFuncs returns the number of registered functions (including helpers).
func (m *CodeModel) NumFuncs() int { return len(m.funcs) }

// FuncName returns the name of fn.
func (m *CodeModel) FuncName(fn sim.FuncID) string {
	switch {
	case int(fn) >= len(m.funcs):
		return fmt.Sprintf("fn%d", fn)
	case fn == 0:
		return "<dispatch>"
	}
	if f := &m.funcs[fn]; f.owner != 0 {
		return string(helperName(nil, m.lay.name(f.owner), int(fn-f.owner-1)))
	}
	return m.lay.name(fn)
}

// helperName appends the name of primary's i-th helper to buf.
func helperName(buf []byte, primary string, i int) []byte {
	return fmt.Appendf(buf, "%s::helper%d", primary, i)
}

// Calls returns the total function invocations replayed, across ResetRun
// boundaries.
func (m *CodeModel) Calls() uint64 { return m.statCalls + m.calls }

// CalledFuncs returns how many distinct functions have executed at least
// once (the paper's Fig. 15 metric).
func (m *CodeModel) CalledFuncs() int {
	n := 0
	for _, w := range m.called {
		n += bits.OnesCount64(w)
	}
	return n
}

// bytesPerUop is how many bytes of host machine code decode to one micro-op
// in a synthetic basic block.
const bytesPerUop = 3.6

// buildTraces lays out three alternative dynamic paths through the
// function, back to back in f.steps: basic blocks of 16-48 bytes, each
// ending in a branch, some with a call site. uopScale decouples dynamic work
// from static size (the -O3 model). It fails on a function with more call
// sites in a trace than a step can name.
//
// The steps are generated into scratch (returned for the next call) and
// copied out at their exact length: a layout is kept and shared, so what it
// holds is sized to what it uses.
func (f *fnLayout) buildTraces(seed uint64, uopScale float64, scratch []traceStep) ([]traceStep, error) {
	steps := scratch[:0]
	for t := 0; t < 3; t++ {
		if t > 0 {
			f.cuts[t-1] = uint32(len(steps))
		}
		start := len(steps)
		rng := seed*2654435761 + uint64(t)*0x9e3779b97f4a7c15
		frac := 0.12 + 0.05*float64(t)
		if f.size > 3000 && f.owner == 0 {
			// Dispatch hubs mostly branch out to callees; their own body
			// contributes proportionally less.
			frac *= 0.55
		}
		covered := uint32(float64(f.size) * frac)
		pos := uint64(0)
		callSlot := 0
		for covered > 0 {
			rng = rng*6364136223846793005 + 1442695040888963407
			blk := 16 + uint32(rng>>33&0x1F) // 16..47 bytes
			if blk > covered {
				blk = covered
			}
			covered -= blk
			step := traceStep{
				off:   uint32(pos),
				bytes: uint8(blk),
				uops:  1 + uint32(float64(blk)/bytesPerUop*uopScale),
				// Branch to a point further into the function (or the next
				// block when not taken).
				br:     uint16(blk + uint32(rng>>40&0xFF)),
				callee: noCallee,
			}
			// Most compiled branches are strongly biased; a minority carry
			// data-dependent patterns (gem5's measured mispredict rate on
			// the Xeon is only ~0.2%).
			switch {
			case rng>>13&0x3F < 62: // ~97%: always one way
				if rng>>9&1 == 1 {
					step.pat = 0xFF
				}
			case rng>>13&0x3F < 63: // ~1.5%: short repeating pattern
				step.pat = 0x66
			default: // ~1.5%: noisy
				step.pat = uint8(rng >> 17)
			}
			// Virtual-dispatch functions issue indirect branches.
			if f.flags&sim.FuncVirtual != 0 && pos == 0 {
				step.indirect = true
			}
			if n := len(steps) - start; n > 0 && n%3 == 0 {
				if callSlot == noCallee {
					return steps, fmt.Errorf("more than %d call sites in one trace", noCallee)
				}
				step.callee = uint16(callSlot)
				callSlot++
			}
			steps = append(steps, step)
			// Dynamic paths jump around the function body.
			pos = (pos + uint64(blk) + (rng >> 21 & 0x3F)) % uint64(f.size)
		}
		if len(steps) == start {
			steps = append(steps, traceStep{bytes: 32, uops: 9, callee: noCallee})
		}
	}
	f.steps = slices.Clone(steps)
	return steps, nil
}

// hashName is 64-bit FNV-1a, spelled out so that hashing a name allocates
// nothing.
func hashName[S string | []byte](name S) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// Call implements sim.Tracer: replay one invocation of fn into the sink.
func (m *CodeModel) Call(fn sim.FuncID) {
	if int(fn) >= len(m.rotor) {
		if int(fn) >= len(m.funcs) {
			return
		}
		m.grow()
	}
	m.call(fn, 0)
}

// grow extends rotor to the functions registered so far, the new rotors at
// zero, and called to a word for every 64 of them.
func (m *CodeModel) grow() {
	n := len(m.funcs)
	m.rotor = append(m.rotor, make([]uint32, n-len(m.rotor))...)
	if w := words(n); w > len(m.called) {
		m.called = append(m.called, make([]uint64, w-len(m.called))...)
	}
}

const maxCallDepth = 2

func (m *CodeModel) call(fn sim.FuncID, depth int) {
	f := &m.funcs[fn]
	m.calls++
	m.called[fn/64] |= 1 << (fn % 64)
	if m.prof != nil {
		m.prof.Enter(fn)
	}
	pat := m.rotor[fn] + 1
	m.rotor[fn] = pat
	// The trace is picked by index, not by a branch on pat%3: which of the
	// three runs changes on every call, so the processor running this code
	// would mispredict a branch on it.
	cut := [4]uint32{0, f.cuts[0], f.cuts[1], uint32(len(f.steps))}
	k := pat % 3
	tr := f.steps[cut[k]:cut[k+1]]

	// Call overhead: push/pop on the (hot) host stack.
	m.sink.Data(m.stackHot-uint64(depth)*128, 16, true)
	if depth == 0 && m.calls%3 == 0 {
		// Simulator object state (SimObject fields, stat storage): a
		// ~96KB resident set that fits an M1-class L1D but thrashes a
		// 32KB one — a large part of the paper's Fig. 8 dCache contrast.
		off := (m.calls / 3 * 72) % (96 << 10) &^ 7
		m.sink.Data(m.heapPool+m.cfg.HeapPoolBytes+off, 8, m.calls%9 == 0)
	}
	if depth == 0 {
		// Allocator/object churn. Most simulator objects recycle through a
		// small hot arena (allocator freelists); a minority of accesses
		// chase long-lived state scattered across the big heap, which
		// keeps the dTLB and LLC lightly pressured without meaningful DRAM
		// bandwidth (paper Fig. 9).
		if m.calls%8 == 0 {
			off := (m.calls / 8 * 16) % (256 << 10)
			m.sink.Data(m.heapPool+off, 16, m.calls%24 == 0)
		}
		if m.calls%96 == 0 {
			off := (m.calls * 2654435761) % m.cfg.HeapPoolBytes &^ 7
			m.sink.Data(m.heapPool+off, 8, m.calls%128 == 0)
		}
	}

	calleeBudget := m.cfg.CalleesPerCall
	if f.size > 3000 {
		// Dispatch hubs call more subroutines per invocation.
		calleeBudget += int(f.size) / 3000
	}
	for i := range tr {
		st := &tr[i]
		addr := f.addr + uint64(st.off)
		m.sink.FetchBlock(addr, uint32(st.bytes), st.uops)
		if st.br != 0 {
			taken := st.pat>>(pat%8)&1 == 1
			target := addr + uint64(st.br)
			if st.indirect && f.flags&sim.FuncPoly != 0 {
				// Megamorphic call site: rotate across dynamic types.
				target += uint64(pat&3) * 192
			}
			m.sink.Branch(addr+uint64(st.bytes)-2, target, taken, st.indirect)
		}
		if st.callee != noCallee && calleeBudget > 0 && depth < maxCallDepth && f.helpers > 0 {
			// Rotate through the helper set so successive calls touch
			// different helpers (low temporal reuse, like gem5).
			calleeBudget--
			// Helper selection rotates slowly: within a window of calls the
			// same helpers run (good iCache reuse, like a steady simulation
			// loop), while over a whole run every helper gets exercised.
			idx := (int(pat/8) + int(st.callee)*7) % int(f.helpers)
			m.call(fn+1+sim.FuncID(idx), depth+1)
		}
	}
	m.sink.Data(m.stackHot-uint64(depth)*128, 16, false)
	if m.prof != nil {
		m.prof.Leave(fn)
	}
}

// ResetRun rewinds the model to the start of a run: the call counter and
// per-function trace rotors that drive heap/branch access patterns, the
// heap cursor that AllocData advances, and the registration cursor, which
// goes back to the start of the layout the model ended on. A guest built
// after ResetRun therefore makes the same registrations against the same
// layout and gets the first build's ids, addresses, allocations and access
// sequences back without placing anything — the same following a fresh
// model does over a layout somebody else published (layout.go). core's
// IntervalRunner calls this between the measurement windows that share one
// code model and one warm machine; cumulative statistics (Calls,
// CalledFuncs) are deliberately not reset.
func (m *CodeModel) ResetRun() {
	m.statCalls += m.calls
	m.calls = 0
	m.heapEnd = m.cfg.HeapBase + m.cfg.HeapPoolBytes + (1 << 20)
	m.rewind([]*Layout{m.lay})
}

// Data implements sim.Tracer.
func (m *CodeModel) Data(addr uint64, size uint32, write bool) {
	m.sink.Data(addr, size, write)
}

// AllocData implements sim.Tracer.
func (m *CodeModel) AllocData(name string, bytes uint64) uint64 {
	base := m.heapEnd
	m.heapEnd += (bytes + 63) &^ 63
	return base
}

// HeapRange returns the allocated heap span for page mapping.
func (m *CodeModel) HeapRange() (uint64, uint64) { return m.cfg.HeapBase, m.heapEnd }

var _ sim.Tracer = (*CodeModel)(nil)
