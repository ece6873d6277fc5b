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

// Validate reports what New would panic on, for the normalised config: an
// arena that is not a power-of-two number of power-of-two slots (placeFunc
// staggers with SlotBytes/2-1 as a mask over 64-byte steps, hence the 128
// byte floor) or a negative (or NaN) factor or count.
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
	case c.CalleeFanout < 0 || c.CalleesPerCall < 0:
		return fmt.Errorf("hostmodel: CalleeFanout and CalleesPerCall must not be negative (got %d, %d)",
			c.CalleeFanout, c.CalleesPerCall)
	}
	return nil
}

// traceStep is one step of a function's dynamic execution path.
type traceStep struct {
	addr  uint64
	bytes uint32
	uops  uint32
	// branch terminating the block (brTarget==0 means fallthrough only).
	brTarget   uint64
	brTakenPat uint8 // taken pattern bits, rotated per call
	indirect   bool
	// callee index to invoke after this block (-1 = none).
	callee int
}

// fnLayout is the static model of one registered function: everything about
// it that is fixed once it is placed. Nothing writes to it afterwards, so
// every code model that runs the same binary can read the same copy (see
// Layout); what changes from call to call lives in CodeModel's rotor and
// called tables.
type fnLayout struct {
	// name is the registered name. A helper has none of its own: it is
	// helper number fn-owner-1 of the primary function owner, and FuncName
	// spells that out on demand — twelve of every thirteen functions are
	// helpers, and a kept layout should not carry five thousand strings
	// only a profile listing ever reads. owner is 0 for a primary.
	name   string
	owner  sim.FuncID
	addr   uint64
	size   uint32
	flags  sim.FuncFlags
	traces [3][]traceStep
	// helpers is how many helper callees follow a primary: place lays them
	// out right behind it, so they are the functions fn+1 … fn+helpers.
	helpers uint32
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
	// FuncID and at least len(funcs) long; bit fn of called is set once fn
	// has run, across ResetRun boundaries, and called has a word for every
	// 64 entries of rotor.
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
		m.cur.overflow += uint64(size+15) &^ 15
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
	if int(fn) >= len(m.funcs) {
		return fmt.Sprintf("fn%d", fn)
	}
	if f := &m.funcs[fn]; f.owner != 0 {
		return string(helperName(nil, m.funcs[f.owner].name, int(fn-f.owner-1)))
	}
	return m.funcs[fn].name
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

// buildTraces precomputes three alternative dynamic paths through the
// function: basic blocks of 16-48 bytes, each ending in a branch, some with
// a call site. uopScale decouples dynamic work from static size (the -O3
// model).
//
// The steps are generated into scratch (returned for the next call) and
// copied out at their exact length: a layout is kept and shared, so what it
// holds is sized to what it uses.
func (f *fnLayout) buildTraces(seed uint64, uopScale float64, scratch []traceStep) []traceStep {
	for t := range f.traces {
		rng := seed*2654435761 + uint64(t)*0x9e3779b97f4a7c15
		frac := 0.12 + 0.05*float64(t)
		if f.size > 3000 && f.owner == 0 {
			// Dispatch hubs mostly branch out to callees; their own body
			// contributes proportionally less.
			frac *= 0.55
		}
		covered := uint32(float64(f.size) * frac)
		steps := scratch[:0]
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
				addr:  f.addr + pos,
				bytes: blk,
				uops:  1 + uint32(float64(blk)/bytesPerUop*uopScale),
				// Branch to a point further into the function (or the next
				// block when not taken).
				brTarget: f.addr + pos + uint64(blk) + uint64(rng>>40&0xFF),
				indirect: false,
				callee:   -1,
			}
			// Most compiled branches are strongly biased; a minority carry
			// data-dependent patterns (gem5's measured mispredict rate on
			// the Xeon is only ~0.2%).
			switch {
			case rng>>13&0x3F < 62: // ~97%: always one way
				if rng>>9&1 == 1 {
					step.brTakenPat = 0xFF
				}
			case rng>>13&0x3F < 63: // ~1.5%: short repeating pattern
				step.brTakenPat = 0x66
			default: // ~1.5%: noisy
				step.brTakenPat = uint8(rng >> 17)
			}
			// Virtual-dispatch functions issue indirect branches.
			if f.flags&sim.FuncVirtual != 0 && pos == 0 {
				step.indirect = true
			}
			if len(steps) > 0 && len(steps)%3 == 0 {
				step.callee = callSlot
				callSlot++
			}
			steps = append(steps, step)
			// Dynamic paths jump around the function body.
			pos = (pos + uint64(blk) + (rng >> 21 & 0x3F)) % uint64(f.size)
		}
		if len(steps) == 0 {
			steps = append(steps, traceStep{
				addr: f.addr, bytes: 32, uops: 9, callee: -1,
			})
		}
		f.traces[t] = slices.Clone(steps)
		scratch = steps
	}
	return scratch
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
	if int(fn) >= len(m.funcs) {
		return
	}
	m.call(fn, 0)
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
	tr := f.traces[pat%3]

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
		m.sink.FetchBlock(st.addr, st.bytes, st.uops)
		if st.brTarget != 0 {
			taken := st.brTakenPat>>(pat%8)&1 == 1
			target := st.brTarget
			if st.indirect && f.flags&sim.FuncPoly != 0 {
				// Megamorphic call site: rotate across dynamic types.
				target += uint64(pat&3) * 192
			}
			m.sink.Branch(st.addr+uint64(st.bytes)-2, target, taken, st.indirect)
		}
		if st.callee >= 0 && calleeBudget > 0 && depth < maxCallDepth && f.helpers > 0 {
			// Rotate through the helper set so successive calls touch
			// different helpers (low temporal reuse, like gem5).
			calleeBudget--
			// Helper selection rotates slowly: within a window of calls the
			// same helpers run (good iCache reuse, like a steady simulation
			// loop), while over a whole run every helper gets exercised.
			idx := (int(pat/8) + st.callee*7) % int(f.helpers)
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
	clear(m.rotor)
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
