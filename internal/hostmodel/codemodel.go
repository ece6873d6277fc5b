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
	"hash/fnv"

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
	// BytesPerUop converts code bytes to decoded micro-ops.
	BytesPerUop float64
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
		BytesPerUop:    3.6,
	}
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

// fnMeta is the static model of one registered function.
type fnMeta struct {
	name    string
	addr    uint64
	size    uint32
	flags   sim.FuncFlags
	traces  [3][]traceStep
	callees []sim.FuncID
	rotor   uint32 // per-call trace/pattern rotation
	// polymorphic marks virtual functions whose indirect call sites flip
	// between targets (distinct dynamic types), defeating the BTB.
	polymorphic bool
	isHelper    bool
}

// CodeModel implements sim.Tracer, translating simulator activity into host
// micro-events.
type CodeModel struct {
	cfg      Config
	sink     Sink
	prof     Profiler
	funcs    []fnMeta
	slotBits uint
	nextSlot int
	overflow uint64 // sequential placement once the arena is full
	heapEnd  uint64

	calls     uint64
	statCalls uint64 // calls retired before the last ResetRun
	stackHot  uint64
	heapPool  uint64
	callsByFn []uint64

	// byName dedups repeat registrations: successive guest builds feeding
	// one persistent code model (core.IntervalRunner) declare the same
	// component functions again, and those must resolve to the first
	// build's layout — re-placing them would diverge the text segment from
	// the address map already handed to the machine's TLBs.
	byName map[string]regRecord
}

// regRecord remembers one primary registration for dedup.
type regRecord struct {
	id        sim.FuncID
	codeBytes int
	flags     sim.FuncFlags
}

// New builds a code model feeding sink.
func New(cfg Config, sink Sink) *CodeModel {
	if cfg.SizeFactor <= 0 {
		cfg.SizeFactor = 1.0
	}
	if cfg.DynFactor <= 0 {
		cfg.DynFactor = 1 - (1-cfg.SizeFactor)/4
	}
	if cfg.BytesPerUop <= 0 {
		cfg.BytesPerUop = 3.6
	}
	if cfg.TextSlots <= 0 {
		cfg.TextSlots = 8192
	}
	if cfg.TextSlots&(cfg.TextSlots-1) != 0 {
		panic("hostmodel: TextSlots must be a power of two")
	}
	if cfg.SlotBytes == 0 {
		cfg.SlotBytes = 16 << 10
	}
	if cfg.HeapPoolBytes == 0 {
		cfg.HeapPoolBytes = 48 << 20
	}
	m := &CodeModel{
		cfg:      cfg,
		sink:     sink,
		stackHot: cfg.StackBase,
		byName:   map[string]regRecord{},
	}
	for s := cfg.TextSlots; s > 1; s >>= 1 {
		m.slotBits++
	}
	m.overflow = cfg.TextBase + uint64(cfg.TextSlots)*cfg.SlotBytes
	// The allocator pool sits at the start of the heap, followed by a 1MB
	// reservation for the resident SimObject set.
	m.heapPool = cfg.HeapBase
	m.heapEnd = cfg.HeapBase + cfg.HeapPoolBytes + (1 << 20)
	// FuncID 0 is the reserved scheduler entry; register a placeholder so
	// indexes line up.
	m.funcs = append(m.funcs, fnMeta{name: "<dispatch>"})
	m.callsByFn = append(m.callsByFn, 0)
	return m
}

// placeFunc returns the address for the next function of size bytes,
// scattering sequential registrations across the arena by bit-reversing the
// slot index (a deterministic stand-in for link-order dispersion).
func (m *CodeModel) placeFunc(size uint32) uint64 {
	// Stagger start offsets within the slot so that slot-aligned placement
	// does not alias every function onto the same cache sets.
	stagger := (uint64(m.nextSlot) * 2654435761 >> 7) & (m.cfg.SlotBytes/2 - 1) &^ 63
	if uint64(size)+stagger > m.cfg.SlotBytes || m.nextSlot >= m.cfg.TextSlots {
		addr := m.overflow
		m.overflow += uint64(size+15) &^ 15
		return addr
	}
	slot := bitReverse(uint64(m.nextSlot), m.slotBits)
	m.nextSlot++
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
	arenaEnd := m.cfg.TextBase + uint64(m.cfg.TextSlots)*m.cfg.SlotBytes
	if m.overflow > arenaEnd {
		return m.overflow
	}
	return arenaEnd
}

// NumFuncs returns the number of registered functions (including helpers).
func (m *CodeModel) NumFuncs() int { return len(m.funcs) }

// FuncName returns the name of fn.
func (m *CodeModel) FuncName(fn sim.FuncID) string {
	if int(fn) >= len(m.funcs) {
		return fmt.Sprintf("fn%d", fn)
	}
	return m.funcs[fn].name
}

// Calls returns the total function invocations replayed, across ResetRun
// boundaries.
func (m *CodeModel) Calls() uint64 { return m.statCalls + m.calls }

// CalledFuncs returns how many distinct functions have executed at least
// once (the paper's Fig. 15 metric).
func (m *CodeModel) CalledFuncs() int {
	n := 0
	for _, c := range m.callsByFn {
		if c > 0 {
			n++
		}
	}
	return n
}

// RegisterFunc implements sim.Tracer. Registering an identical (name,
// size, flags) triple again returns the original function: a simulator
// binary has one copy of each function no matter how many guest systems
// trace into it.
func (m *CodeModel) RegisterFunc(name string, codeBytes int, flags sim.FuncFlags) sim.FuncID {
	if prev, ok := m.byName[name]; ok && prev.codeBytes == codeBytes && prev.flags == flags {
		return prev.id
	}
	id := m.registerOne(name, codeBytes, flags, false)
	if _, ok := m.byName[name]; !ok {
		m.byName[name] = regRecord{id: id, codeBytes: codeBytes, flags: flags}
	}
	// Primary functions bring a retinue of helper callees: parameter
	// checks, accessors, allocator shims — the reason gem5 touches
	// thousands of distinct functions per simulation.
	fanout := m.cfg.CalleeFanout
	if flags&sim.FuncLeaf != 0 {
		fanout = 0
	}
	h := hashName(name)
	for i := 0; i < fanout; i++ {
		// Helpers scale with their owner: big dispatch hubs (pipeline
		// stages) fan work out into substantial subroutines, which is what
		// flattens gem5's hot-function CDF for detailed CPU models.
		helperSize := 90 + codeBytes/20 + int(h>>uint(i%24)&0x7F)
		// Helpers are direct-called leaves: no indirect branches.
		hflags := (flags &^ (sim.FuncVirtual | sim.FuncPoly)) | sim.FuncLeaf
		helper := m.registerOne(fmt.Sprintf("%s::helper%d", name, i), helperSize, hflags, true)
		m.funcs[id].callees = append(m.funcs[id].callees, helper)
	}
	return id
}

func (m *CodeModel) registerOne(name string, codeBytes int, flags sim.FuncFlags, helper bool) sim.FuncID {
	size := uint32(float64(codeBytes) * m.cfg.SizeFactor)
	if size < 32 {
		size = 32
	}
	id := sim.FuncID(len(m.funcs))
	addr := m.placeFunc(size)
	f := fnMeta{
		name:        name,
		addr:        addr,
		size:        size,
		flags:       flags,
		polymorphic: flags&sim.FuncPoly != 0,
		isHelper:    helper,
	}
	f.buildTraces(hashName(name), m.cfg.DynFactor/m.cfg.SizeFactor)
	m.funcs = append(m.funcs, f)
	m.callsByFn = append(m.callsByFn, 0)
	return id
}

// buildTraces precomputes three alternative dynamic paths through the
// function: basic blocks of 16-48 bytes, each ending in a branch, some with
// a call site. uopScale decouples dynamic work from static size (the -O3
// model).
func (f *fnMeta) buildTraces(seed uint64, uopScale float64) {
	for t := range f.traces {
		rng := seed*2654435761 + uint64(t)*0x9e3779b97f4a7c15
		frac := 0.12 + 0.05*float64(t)
		if f.size > 3000 && !f.isHelper {
			// Dispatch hubs mostly branch out to callees; their own body
			// contributes proportionally less.
			frac *= 0.55
		}
		covered := uint32(float64(f.size) * frac)
		// Blocks are at least 16 bytes, so covered/16+1 bounds the step
		// count: one allocation per trace instead of append regrowth
		// (which dominated session-construction allocations).
		f.traces[t] = make([]traceStep, 0, covered/16+1)
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
				uops:  1 + uint32(float64(blk)/3.6*uopScale),
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
			if len(f.traces[t]) > 0 && len(f.traces[t])%3 == 0 {
				step.callee = callSlot
				callSlot++
			}
			f.traces[t] = append(f.traces[t], step)
			// Dynamic paths jump around the function body.
			pos = (pos + uint64(blk) + (rng >> 21 & 0x3F)) % uint64(f.size)
		}
		if len(f.traces[t]) == 0 {
			f.traces[t] = append(f.traces[t], traceStep{
				addr: f.addr, bytes: 32, uops: 9, callee: -1,
			})
		}
	}
}

func hashName(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
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
	m.callsByFn[fn]++
	if m.prof != nil {
		m.prof.Enter(fn)
	}
	f.rotor++
	tr := f.traces[f.rotor%3]
	pat := f.rotor

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
			if st.indirect && f.polymorphic {
				// Megamorphic call site: rotate across dynamic types.
				target += uint64(pat&3) * 192
			}
			m.sink.Branch(st.addr+uint64(st.bytes)-2, target, taken, st.indirect)
		}
		if st.callee >= 0 && calleeBudget > 0 && depth < maxCallDepth && len(f.callees) > 0 {
			// Rotate through the helper set so successive calls touch
			// different helpers (low temporal reuse, like gem5).
			calleeBudget--
			// Helper selection rotates slowly: within a window of calls the
			// same helpers run (good iCache reuse, like a steady simulation
			// loop), while over a whole run every helper gets exercised.
			idx := (int(pat/8) + st.callee*7) % len(f.callees)
			m.call(f.callees[idx], depth+1)
		}
	}
	m.sink.Data(m.stackHot-uint64(depth)*128, 16, false)
	if m.prof != nil {
		m.prof.Leave(fn)
	}
}

// ResetRun rewinds the model's dynamic replay state — the call counter
// and per-function trace rotors that drive heap/branch access patterns,
// and the heap cursor that AllocData advances — to their initial values,
// while keeping every registered function and the text layout intact. A
// fresh guest build after ResetRun therefore replays the identical
// component allocations and access sequences of the first build, staying
// inside the address map already handed to the machine. core's
// IntervalRunner calls this between the measurement windows that share
// one code model; cumulative statistics (Calls, CalledFuncs) are
// deliberately not reset.
func (m *CodeModel) ResetRun() {
	m.statCalls += m.calls
	m.calls = 0
	m.heapEnd = m.cfg.HeapBase + m.cfg.HeapPoolBytes + (1 << 20)
	for i := range m.funcs {
		m.funcs[i].rotor = 0
	}
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
