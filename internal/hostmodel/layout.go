package hostmodel

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"gem5prof/internal/sim"
)

// A Layout is one synthetic simulator binary: every registered function with
// its address, size, helper retinue and three traces, plus the log of the
// RegisterFunc calls that produced them. It is a pure function of the
// normalised Config and that ordered sequence of (name, codeBytes, flags)
// triples — placement is a cursor, helpers and traces are seeded from the
// name — which is why a code model that makes the same calls in the same
// order can read a layout somebody else built instead of building its own.
//
// A layout is written only by the one code model that owns it and never
// after CodeModel.Publish; from then on any number of code models, on any
// goroutines, read it.
type Layout struct {
	cfg   Config
	funcs []fnLayout
	log   []registration
}

// registration is one RegisterFunc call as a layout recorded it: the triple
// a follower has to present at this position, the id it gets back, and
// where the binary stood afterwards. A call that named an already registered
// function is in the log too (it returned the first one's id and placed
// nothing), so four cores sharing one TimingSimpleCPU::fetch replay as four
// entries.
type registration struct {
	name      string
	codeBytes int
	flags     sim.FuncFlags
	id        sim.FuncID
	after     cursor
}

// cursor is how far a layout has got: the function count and where
// placeFunc puts the next one.
type cursor struct {
	nfuncs   int
	nextSlot int
	overflow uint64 // sequential placement once the arena is full
}

// emptyLayout is the binary before any registration. FuncID 0 is the
// reserved scheduler entry; a placeholder keeps the indexes lined up.
func emptyLayout(cfg Config) *Layout {
	return &Layout{cfg: cfg, funcs: []fnLayout{{}}}
}

// name returns the name primary fn was registered under: that of the
// registration that placed it, which is the first whose cursor is past it.
func (l *Layout) name(fn sim.FuncID) string {
	i := sort.Search(len(l.log), func(i int) bool { return l.log[i].after.nfuncs > int(fn) })
	return l.log[i].name
}

// at returns the cursor after the first pos registrations.
func (l *Layout) at(pos int) cursor {
	if pos == 0 {
		return cursor{nfuncs: 1, overflow: l.cfg.arenaEnd()}
	}
	return l.log[pos-1].after
}

// Same reports whether o is the same binary as l: the same layout, or one
// that recorded the same calls under the same config.
func (l *Layout) Same(o *Layout) bool {
	if l == o {
		return true
	}
	if l.cfg != o.cfg || len(l.log) != len(o.log) {
		return false
	}
	for i := range l.log {
		if a, b := &l.log[i], &o.log[i]; a.name != b.name || a.codeBytes != b.codeBytes || a.flags != b.flags {
			return false
		}
	}
	return true
}

// rewind puts the model at the start of a run that follows cands, layouts of
// m.cfg that are immutable or m's own. The rotors start over at zero as the
// functions are registered again (Call regrows them); the called bits stay.
func (m *CodeModel) rewind(cands []*Layout) {
	m.cands, m.owned, m.byName = cands, false, nil
	m.lay, m.pos = cands[0], 0
	m.rotor = m.rotor[:0]
	m.advance(m.lay.at(0))
}

// advance moves the model's view of the binary to cur.
func (m *CodeModel) advance(cur cursor) {
	m.cur = cur
	m.funcs = m.lay.funcs[:cur.nfuncs]
}

// RegisterFunc implements sim.Tracer. While some layout the model follows
// recorded this same triple at this position, the call returns the recorded
// id and does nothing else; the check is the whole key, so no list of
// "fields that shape the binary" exists to fall out of date. The first call
// that no followed layout recorded there forks: the model copies what it
// has verified so far and appends to the copy from then on, which yields the
// ids and addresses a model that followed nothing would have produced.
//
// Appending, a repeated (name, size, flags) triple returns the original
// function: a simulator binary has one copy of each function no matter how
// many components of a guest system trace into it.
//
// It panics, naming the function, on one no layout can hold: a negative
// codeBytes, a size that scaled by SizeFactor exceeds a uint32, or a trace
// with more call sites than a step can name.
func (m *CodeModel) RegisterFunc(name string, codeBytes int, flags sim.FuncFlags) sim.FuncID {
	if codeBytes < 0 {
		panic(fmt.Errorf("hostmodel: RegisterFunc(%q, %d): negative code size", name, codeBytes))
	}
	if !m.owned {
		if id, ok := m.follow(name, codeBytes, flags); ok {
			return id
		}
		m.fork()
	}
	var id sim.FuncID
	if first, seen := m.byName[name]; !seen {
		m.byName[name] = len(m.lay.log)
		id = m.place(name, codeBytes, flags)
	} else if r := &m.lay.log[first]; r.codeBytes == codeBytes && r.flags == flags {
		id = r.id
	} else {
		id = m.place(name, codeBytes, flags) // same name, another function: the first keeps the name
	}
	m.lay.log = append(m.lay.log, registration{name: name, codeBytes: codeBytes, flags: flags, id: id, after: m.cur})
	m.pos++
	return id
}

// follow narrows the candidates to those that recorded the triple at the
// model's position and, if any did, steps over that entry.
func (m *CodeModel) follow(name string, codeBytes int, flags sim.FuncFlags) (sim.FuncID, bool) {
	keep := m.cands[:0]
	for _, l := range m.cands {
		if m.pos < len(l.log) {
			if r := &l.log[m.pos]; r.name == name && r.codeBytes == codeBytes && r.flags == flags {
				keep = append(keep, l)
			}
		}
	}
	if len(keep) == 0 {
		return 0, false // m.cands is untouched: nothing was kept over it
	}
	m.cands, m.lay = keep, keep[0]
	r := &m.lay.log[m.pos]
	m.pos++
	m.advance(r.after)
	return r.id, true
}

// fork makes lay a private copy of the registrations followed so far. Only
// the function headers are copied; the traces behind them are immutable and
// stay shared with the layout they came from. A model that had run further
// than this on an earlier pass (ResetRun, then a guest that registers
// differently) loses the rotors and called bits of the functions past the
// fork, down to the bits past it in the last word kept: their ids are about
// to name other functions.
func (m *CodeModel) fork() {
	from := m.lay
	m.lay = &Layout{
		cfg:   from.cfg,
		funcs: append([]fnLayout(nil), from.funcs[:m.cur.nfuncs]...),
		log:   append([]registration(nil), from.log[:m.pos]...),
	}
	m.cands, m.owned = nil, true
	m.byName = make(map[string]int, len(m.lay.log))
	for i := range m.lay.log {
		if _, seen := m.byName[m.lay.log[i].name]; !seen {
			m.byName[m.lay.log[i].name] = i
		}
	}
	m.funcs = m.lay.funcs
	n := len(m.funcs)
	m.rotor = m.rotor[:min(n, len(m.rotor))]
	if w := words(n); len(m.called) >= w {
		m.called = m.called[:w]
		if n%64 != 0 {
			m.called[w-1] &= 1<<(n%64) - 1
		}
	}
}

// words is how many 64-bit words a set of n bits takes.
func words(n int) int { return (n + 63) / 64 }

// place lays out one primary function and its helpers.
func (m *CodeModel) place(name string, codeBytes int, flags sim.FuncFlags) sim.FuncID {
	h := hashName(name)
	id, err := m.placeOne(0, h, codeBytes, flags)
	if err != nil {
		panic(fmt.Errorf("hostmodel: RegisterFunc(%q, %d): %w", name, codeBytes, err))
	}
	// Primary functions bring a retinue of helper callees: parameter
	// checks, accessors, allocator shims — the reason gem5 touches
	// thousands of distinct functions per simulation.
	fanout := m.cfg.CalleeFanout
	if flags&sim.FuncLeaf != 0 {
		fanout = 0
	}
	for i := 0; i < fanout; i++ {
		// Helpers scale with their owner: big dispatch hubs (pipeline
		// stages) fan work out into substantial subroutines, which is what
		// flattens gem5's hot-function CDF for detailed CPU models.
		helperSize := 90 + codeBytes/20 + int(h>>uint(i%24)&0x7F)
		// Helpers are direct-called leaves: no indirect branches.
		m.nameBuf = helperName(m.nameBuf[:0], name, i)
		if _, err := m.placeOne(id, hashName(m.nameBuf), helperSize, sim.FuncLeaf); err != nil {
			panic(fmt.Errorf("hostmodel: RegisterFunc(%q, %d): helper %d: %w", name, codeBytes, i, err))
		}
	}
	m.lay.funcs[id].helpers = uint32(fanout)
	m.cur.nfuncs = len(m.lay.funcs)
	m.advance(m.cur)
	return id
}

// placeOne lays out one function: a primary, or a helper of owner. seed is
// the hash of the function's full name.
func (m *CodeModel) placeOne(owner sim.FuncID, seed uint64, codeBytes int, flags sim.FuncFlags) (sim.FuncID, error) {
	scaled := float64(codeBytes) * m.cfg.SizeFactor
	if !(scaled <= math.MaxUint32) {
		return 0, fmt.Errorf("%d bytes at SizeFactor %g do not fit a function's size", codeBytes, m.cfg.SizeFactor)
	}
	size := max(uint32(scaled), 32)
	f := fnLayout{owner: owner, size: size, flags: flags}
	var err error
	if m.scratch, err = f.buildTraces(seed, m.cfg.DynFactor/m.cfg.SizeFactor, m.scratch); err != nil {
		return 0, err
	}
	id := sim.FuncID(len(m.lay.funcs))
	f.addr = m.placeFunc(size)
	if len(m.lay.funcs) == cap(m.lay.funcs) {
		// Double: append's 1.25x steps would copy a binary of thousands of
		// functions five times over while it is being laid out.
		m.lay.funcs = slices.Grow(m.lay.funcs, max(len(m.lay.funcs), 64))
	}
	m.lay.funcs = append(m.lay.funcs, f)
	return id, nil
}

// Follow builds a code model feeding sink that follows published — layouts
// other models built and published — for as long as its registrations agree
// with one of them. Layouts of another config than cfg's normalised form
// are ignored; with none left it is New. It panics where New does.
func Follow(cfg Config, sink Sink, published []*Layout) *CodeModel {
	norm := cfg.Normalized()
	var cands []*Layout
	for _, l := range published {
		if l.cfg == norm {
			cands = append(cands, l)
		}
	}
	return newModel(cfg, sink, cands)
}

// Publish returns the layout m stands on once its guest is built, for other
// models to Follow; nil when nothing was registered. A layout m built or
// extended itself is immutable from here on (and trimmed to size, since it
// may now outlive the session); m keeps working, and a later registration
// forks again.
func (m *CodeModel) Publish() *Layout {
	l := m.lay
	if len(l.log) == 0 {
		return nil
	}
	if m.owned {
		l.funcs, l.log = slices.Clone(l.funcs), slices.Clone(l.log)
		m.funcs = l.funcs
		m.cands, m.owned, m.byName = []*Layout{l}, false, nil
	}
	return l
}
