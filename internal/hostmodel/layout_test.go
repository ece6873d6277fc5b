package hostmodel

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gem5prof/internal/sim"
)

// reg is one RegisterFunc call of a test sequence.
type reg struct {
	name  string
	bytes int
	flags sim.FuncFlags
}

// guestLike is shaped like a guest build: an event-queue prefix every
// system shares, a per-mode environment, a memory hierarchy, and a CPU that
// several cores register again (the repeats dedup to the first).
func guestLike(mode string, cores int) []reg {
	seq := []reg{
		{"EventQueue::serviceOne", 480, 0},
		{"EventQueue::schedule", 320, 0},
		{mode + "Workload::syscall", 5200, sim.FuncVirtual},
		{"sys.l1d::access", 1400, sim.FuncVirtual},
		{"sys.l2::access", 1400, sim.FuncVirtual},
		{"sys.mem::recvAtomic", 1600, sim.FuncVirtual},
	}
	for c := 0; c < cores; c++ {
		seq = append(seq,
			reg{"CPU::fetch", 2200, sim.FuncVirtual},
			reg{"CPU::execute<IntAlu>", 1900, sim.FuncVirtual | sim.FuncPoly},
			reg{"CPU::tick", 40, sim.FuncLeaf},
		)
	}
	return seq
}

// streamSink hashes every sink call, so that two models that emit the same
// stream — same addresses, sizes, targets, order — end on the same sum.
type streamSink struct{ h uint64 }

func (s *streamSink) mix(vs ...uint64) {
	for _, v := range vs {
		s.h = (s.h ^ v) * 1099511628211
	}
}
func (s *streamSink) FetchBlock(addr uint64, bytes, uops uint32) {
	s.mix(1, addr, uint64(bytes), uint64(uops))
}
func (s *streamSink) Branch(pc, target uint64, taken, indirect bool) {
	s.mix(2, pc, target, b2u(taken), b2u(indirect))
}
func (s *streamSink) Data(addr uint64, size uint32, write bool) {
	s.mix(3, addr, uint64(size), b2u(write))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// outcome is everything a model's client can see of a build and a run.
type outcome struct {
	ids              []sim.FuncID
	nfuncs, called   int
	text, heap, sum  uint64
	calls            uint64
	names, addresses string
}

// drive registers seq on m, allocates, calls every function a few times and
// reports what came of it.
func drive(m *CodeModel, sink *streamSink, seq []reg) outcome {
	var o outcome
	for _, r := range seq {
		o.ids = append(o.ids, m.RegisterFunc(r.name, r.bytes, r.flags))
	}
	m.AllocData("guest.ram", 1<<20)
	for round := 0; round < 20; round++ {
		for _, id := range o.ids {
			m.Call(id)
		}
	}
	var names, addrs strings.Builder
	for fn := 0; fn < m.NumFuncs(); fn++ {
		fmt.Fprintf(&names, "%s\n", m.FuncName(sim.FuncID(fn)))
		fmt.Fprintf(&addrs, "%x+%x\n", m.funcs[fn].addr, m.funcs[fn].size)
	}
	_, o.heap = m.HeapRange()
	o.nfuncs, o.called, o.text, o.calls = m.NumFuncs(), m.CalledFuncs(), m.TextBytes(), m.Calls()
	o.sum, o.names, o.addresses = sink.h, names.String(), addrs.String()
	return o
}

// private is what a model that shares nothing makes of seq.
func private(cfg Config, seq []reg) outcome {
	sink := &streamSink{}
	return drive(New(cfg, sink), sink, seq)
}

func same(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s differs from the private build:\n got ids %v funcs %d called %d text %#x heap %#x calls %d sum %#x\nwant ids %v funcs %d called %d text %#x heap %#x calls %d sum %#x\n(names equal: %v, addresses equal: %v)",
			what, got.ids, got.nfuncs, got.called, got.text, got.heap, got.calls, got.sum,
			want.ids, want.nfuncs, want.called, want.text, want.heap, want.calls, want.sum,
			got.names == want.names, got.addresses == want.addresses)
	}
}

// fingerprint hashes everything a layout holds, to show nobody wrote to it.
func fingerprint(l *Layout) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|", l.cfg)
	for _, r := range l.log {
		fmt.Fprintf(h, "%+v|", r)
	}
	for _, f := range l.funcs {
		fmt.Fprintf(h, "%+v|", f)
	}
	return h.Sum64()
}

// publish builds seq privately and returns its published layout.
func publish(t *testing.T, cfg Config, seq []reg) *Layout {
	t.Helper()
	sink := &streamSink{}
	m := New(cfg, sink)
	drive(m, sink, seq)
	l := m.Publish()
	if l == nil || m.owned {
		t.Fatalf("Publish: layout %v, still owned %v", l, m.owned)
	}
	return l
}

// TestFollowerMatchesPrivateBuild: following a published layout to its end
// builds nothing and changes nothing a client can see.
func TestFollowerMatchesPrivateBuild(t *testing.T) {
	for _, cfg := range []Config{{}, {SizeFactor: 0.97}, {TextSlots: 2}} {
		seq := guestLike("SE", 4)
		want := private(cfg, seq)
		l := publish(t, cfg, seq)
		before := fingerprint(l)

		sink := &streamSink{}
		m := Follow(cfg, sink, []*Layout{l})
		got := drive(m, sink, seq)
		same(t, fmt.Sprintf("%+v: follower", cfg), got, want)
		if m.owned || m.lay != l {
			t.Errorf("%+v: the follower forked (owned=%v)", cfg, m.owned)
		}
		if m.Publish() != l {
			t.Errorf("%+v: a follower publishes the layout it followed", cfg)
		}
		if fingerprint(l) != before {
			t.Errorf("%+v: following wrote to the published layout", cfg)
		}
	}
}

// TestFollowerForksWhereItDiverges: SE and FS share the event-queue prefix
// and part ways at the third registration. A follower of the other mode's
// layout gets, from there on, the ids and addresses of a private build, and
// leaves the layout it followed untouched. The same for a sequence that
// stops short of the layout's end and for one that goes past it.
func TestFollowerForksWhereItDiverges(t *testing.T) {
	cfg := Config{}
	fs := publish(t, cfg, guestLike("FS", 1))
	before := fingerprint(fs)
	long := guestLike("FS", 1)
	for name, seq := range map[string][]reg{
		"diverges after the prefix": guestLike("SE", 1),
		"stops short":               long[:4],
		"goes past the end":         append(long[:len(long):len(long)], reg{"Extra::f", 900, 0}),
		"same name, other size":     append(long[:3:3], reg{"sys.l1d::access", 1500, sim.FuncVirtual}),
	} {
		sink := &streamSink{}
		m := Follow(cfg, sink, []*Layout{fs})
		same(t, name, drive(m, sink, seq), private(cfg, seq))
		if name != "stops short" && !m.owned {
			t.Errorf("%s: still following", name)
		}
		if l := m.Publish(); name != "stops short" && (l == fs || !l.Same(l) || l.Same(fs)) {
			t.Errorf("%s: published %p, the followed layout is %p", name, l, fs)
		}
	}
	if fingerprint(fs) != before {
		t.Error("a diverging follower wrote to the published layout")
	}
}

// TestFollowerNarrowsCandidates: with several layouts of one config
// published, the follower ends on the one that recorded its sequence,
// whatever their order, and forks only when none did. Each order is handed
// to four followers in turn, so Follow must not narrow the caller's slice.
func TestFollowerNarrowsCandidates(t *testing.T) {
	cfg := Config{}
	se1, se4, fs1 := guestLike("SE", 1), guestLike("SE", 4), guestLike("FS", 1)
	lse1, lse4, lfs1 := publish(t, cfg, se1), publish(t, cfg, se4), publish(t, cfg, fs1)
	for _, order := range [][]*Layout{{lse1, lse4, lfs1}, {lfs1, lse4, lse1}, {lse4, lfs1, lse1}} {
		for _, tc := range []struct {
			seq  []reg
			want *Layout
		}{{se1, lse1}, {se4, lse4}, {fs1, lfs1}, {guestLike("FS", 2), nil}} {
			sink := &streamSink{}
			m := Follow(cfg, sink, order)
			same(t, "candidate follower", drive(m, sink, tc.seq), private(cfg, tc.seq))
			// se1 is a prefix of se4: ending on either is following.
			if tc.want != nil && (m.owned || !(m.lay == tc.want || (tc.want == lse1 && m.lay == lse4))) {
				t.Errorf("ended on %p (owned=%v), want %p", m.lay, m.owned, tc.want)
			}
			if tc.want == nil && !m.owned {
				t.Error("no candidate recorded FS x2, yet the follower did not fork")
			}
		}
	}
}

// TestFollowIgnoresOtherConfigs: a layout of another build of the binary is
// not a candidate, however alike the sequences: the -O3 build places every
// function somewhere else.
func TestFollowIgnoresOtherConfigs(t *testing.T) {
	seq := guestLike("SE", 1)
	base := publish(t, Config{}, seq)
	o3 := Config{SizeFactor: 0.97}
	sink := &streamSink{}
	m := Follow(o3, sink, []*Layout{base})
	same(t, "-O3 build handed the default build's layout", drive(m, sink, seq), private(o3, seq))
	if !m.owned || m.lay == base {
		t.Error("the -O3 build followed the default build's layout")
	}
}

// TestResetRunRefollows: ResetRun is a rewind over the same layout. The
// same sequence gets the same ids, addresses and stream back without
// forking; a different one forks, like any follower; Calls and CalledFuncs
// keep counting. CalledFuncs counts, across the passes, the functions
// entered below the fork's cut before it and those entered after it: the
// fork forgets that the functions past its cut ran, down to the bits of the
// last word it keeps.
func TestResetRunRefollows(t *testing.T) {
	cfg := Config{}
	seq := guestLike("SE", 2)
	want := private(cfg, seq)
	fs := guestLike("FS", 1)
	// The whole FS binary places again every name the earlier passes placed
	// past the cut; cut short after its first function of its own, it
	// enters too few of them to hide a fork that kept their bits.
	for _, other := range [][]reg{fs, fs[:3]} {
		for _, published := range []bool{false, true} {
			sink := &streamSink{}
			m := New(cfg, sink)
			entered := enteredSet{}
			m.SetProfiler(entered)
			first := drive(m, sink, seq)
			same(t, "first pass", first, want)
			if published {
				m.Publish()
			}
			lay := m.lay

			m.ResetRun()
			if m.NumFuncs() != 1 || m.TextBytes() != uint64(m.cfg.TextSlots)*m.cfg.SlotBytes {
				t.Errorf("after ResetRun: %d funcs, text %#x: the cursor did not rewind", m.NumFuncs(), m.TextBytes())
			}
			sink.h = 0
			second := drive(m, sink, seq)
			if second.calls != 2*want.calls || second.called != want.called {
				t.Errorf("cumulative counters: calls %d called %d, want %d and %d", second.calls, second.called, 2*want.calls, want.called)
			}
			second.calls = want.calls
			same(t, "second pass", second, want)
			if m.lay != lay {
				t.Errorf("published=%v: the second pass left the first pass's layout", published)
			}

			m.ResetRun()
			sink.h = 0
			before := entered
			entered = enteredSet{}
			m.SetProfiler(entered)
			third := drive(m, sink, other)
			wantOther := private(cfg, other)
			calledAcross := third.called
			third.calls, wantOther.calls = 0, 0
			third.called, wantOther.called = 0, 0 // functions of both binaries have run by now
			same(t, "diverging third pass", third, wantOther)

			// The fork's cut is the id of the first registration that
			// differs: it is placed right behind what the model followed.
			div := 0
			for other[div] == seq[div] {
				div++
			}
			cut := third.ids[div]
			if cut%64 == 0 {
				t.Fatalf("the fork cuts at %d, a word boundary: the test would not reach a partial word", cut)
			}
			forgotten := 0
			for fn := range before {
				if fn < cut {
					entered[fn] = true
				} else if !entered[fn] {
					forgotten++
				}
			}
			if len(other) < len(fs) && forgotten == 0 {
				t.Fatalf("the third pass enters every function the earlier passes entered past the cut at %d: it would not see a fork that kept their bits", cut)
			}
			t.Logf("%d registrations: the fork cuts at %d, the third pass has %d functions and forgets %d that ran", len(other), cut, third.nfuncs, forgotten)
			if calledAcross != len(entered) {
				t.Errorf("published=%v, %d registrations: CalledFuncs %d after the fork at %d, want %d", published, len(other), calledAcross, cut, len(entered))
			}
		}
	}
}

// enteredSet is a Profiler that records the functions entered.
type enteredSet map[sim.FuncID]bool

func (s enteredSet) Enter(fn sim.FuncID) { s[fn] = true }
func (s enteredSet) Leave(sim.FuncID)    {}

// TestHelperNames: helpers are named after their owner on demand.
func TestHelperNames(t *testing.T) {
	m := New(Config{}, &streamSink{})
	a := m.RegisterFunc("Cache::access", 1400, sim.FuncVirtual)
	b := m.RegisterFunc("Leaf::f", 100, sim.FuncLeaf)
	if got := m.FuncName(a + 1); got != "Cache::access::helper0" {
		t.Errorf("first helper is %q", got)
	}
	if got := m.FuncName(b - 1); got != fmt.Sprintf("Cache::access::helper%d", DefaultConfig().CalleeFanout-1) {
		t.Errorf("last helper is %q", got)
	}
	if m.FuncName(a) != "Cache::access" || m.FuncName(b) != "Leaf::f" || m.FuncName(0) != "<dispatch>" {
		t.Errorf("primaries are %q, %q, %q", m.FuncName(a), m.FuncName(b), m.FuncName(0))
	}
}

// TestConcurrentFollowers: one published layout, many goroutines following
// and running it at once. Under -race this is the proof that following
// only reads.
func TestConcurrentFollowers(t *testing.T) {
	cfg := Config{SizeFactor: 0.97}
	seq := guestLike("SE", 4)
	want := private(cfg, seq)
	l := publish(t, cfg, seq)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := seq
			if g%4 == 3 {
				mine = guestLike("FS", 1) // one in four forks off it instead
			}
			sink := &streamSink{}
			got := drive(Follow(cfg, sink, []*Layout{l}), sink, mine)
			if g%4 != 3 && fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("goroutine %d: follower differs from the private build", g)
			}
		}(g)
	}
	wg.Wait()
}

// TestConfigNormalizedAndValidate: zero fields take the defaults one by
// one, every spelling of the default binary normalises to one value, and
// Validate names what New would panic on.
func TestConfigNormalizedAndValidate(t *testing.T) {
	def := DefaultConfig()
	def.DynFactor = 1
	for _, c := range []Config{{}, {SizeFactor: 1}, DefaultConfig(), {TextSlots: 8192, CalleesPerCall: 2}} {
		if got := c.Normalized(); got != def {
			t.Errorf("%+v normalises to %+v, want %+v", c, got, def)
		}
	}
	sf := 0.97 // a variable: the derivation must round as New's always has, at run time
	got := Config{SizeFactor: sf, CalleeFanout: 2}.Normalized()
	want := def
	want.SizeFactor, want.DynFactor, want.CalleeFanout = sf, 1-(1-sf)/4, 2
	if got != want {
		t.Errorf("partial config normalises to %+v, want %+v", got, want)
	}
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, ""},
		{DefaultConfig(), ""},
		{Config{TextSlots: 2}, ""},
		{Config{TextSlots: 3000}, "TextSlots must be a power of two"},
		{Config{TextSlots: -8}, "TextSlots must be a power of two"},
		{Config{SlotBytes: 3 << 10}, "SlotBytes must be a power of two"},
		{Config{SlotBytes: 64}, "SlotBytes must be a power of two >= 128"},
		{Config{SizeFactor: -1}, "must not be negative"},
		{Config{DynFactor: -0.5}, "must not be negative"},
		{Config{CalleeFanout: -1}, "must not be negative"},
		{Config{CalleesPerCall: -2}, "must not be negative"},
		{Config{DynFactor: maxUopScale}, ""},
		{Config{DynFactor: 2 * maxUopScale}, "DynFactor/SizeFactor must be at most"},
		{Config{SizeFactor: 1e-300}, "DynFactor/SizeFactor must be at most"},
		// Every address stays below 2^47: text, heap and stack each refused
		// where they reach it, and accepted a byte short of that.
		{Config{TextBase: AddrLimit - 8192*(16<<10)}, "text arena at 0x7ffff8000000 of 8192 slots of 16384 B reaches 2^47"},
		{Config{TextBase: AddrLimit - 8192*(16<<10) - 1}, ""},
		{Config{TextBase: 1 << 30, TextSlots: 1 << 40, SlotBytes: 1 << 30}, "text arena"}, // 2^70 bytes: the product wraps
		{Config{HeapBase: AddrLimit - 24<<20 - 1<<20}, "heap at 0x7ffffe700000, a pool of 25165824 B and 1 MB after it, reaches 2^47"},
		{Config{HeapBase: AddrLimit - 24<<20 - 1<<20 - 1}, ""},
		{Config{HeapBase: 1 << 20, HeapPoolBytes: AddrLimit - 1<<20}, "heap at 0x100000"},
		{Config{HeapPoolBytes: ^uint64(0)}, "heap at 0x7f0000000000"},
		{Config{StackBase: AddrLimit}, "StackBase 0x800000000000 is not below 2^47"},
		{Config{StackBase: AddrLimit - 1}, ""},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: unexpected %v", tc.cfg, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v: got %v, want an error containing %q", tc.cfg, err, tc.want)
		}
	}
}

// TestEveryConfigFieldChangesTheBinary: each field of a normalised Config,
// changed alone to another valid value, changes what a client of the code
// model can see: the emitted records, the layout, or the heap. A field that
// changed none of them would be a knob wired to nothing.
func TestEveryConfigFieldChangesTheBinary(t *testing.T) {
	seq := guestLike("SE", 2)
	def := DefaultConfig().Normalized()
	base := fmt.Sprint(private(def, seq))
	v := reflect.ValueOf(&def).Elem()
	for i := 0; i < v.NumField(); i++ {
		cfg := def
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		// Doubling or halving keeps the power-of-two fields powers of two,
		// and halving keeps an address below AddrLimit; a quarter less
		// keeps the factors positive.
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(2 * f.Int())
		case reflect.Uint64:
			f.SetUint(f.Uint() / 2)
		case reflect.Float64:
			f.SetFloat(0.75 * f.Float())
		default:
			t.Fatalf("field %s: no perturbation for kind %s", v.Type().Field(i).Name, f.Kind())
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("field %s: perturbed config invalid: %v", v.Type().Field(i).Name, err)
		}
		if fmt.Sprint(private(cfg, seq)) == base {
			t.Errorf("field %s: changing it from %v to %v changes nothing the code model emits",
				v.Type().Field(i).Name, v.Field(i), f)
		}
	}
}
