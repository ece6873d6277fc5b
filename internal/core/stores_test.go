package core_test

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/sim"
	"gem5prof/internal/uarch"
)

// digest is everything of a session result that the stores could move if
// reuse were wrong: every guest statistic, the host's counts and its report
// in rendered form, and the summary of the synthetic binary.
func digest(t *testing.T, sc core.SessionConfig) string {
	t.Helper()
	res, err := core.RunSession(sc)
	if err != nil {
		t.Fatalf("%+v: %v", sc.Guest, err)
	}
	if !res.Guest.ChecksumOK {
		t.Fatalf("%+v: checksum", sc.Guest)
	}
	return digestOf(res)
}

func digestOf(res *core.SessionResult) string {
	return fmt.Sprintf("%s\n%s\n%+v\nfuncs %d text %d called %d", res.Guest.Stats.Dump(), res.Host.String(),
		res.Counts, res.NumFuncs, res.TextBytes, res.CalledFuncs)
}

// sharingMatrix is every CPU model x {SE, FS boot-exit, four cores, guest
// TLBs, ideal memory} x two builds of the simulator binary: forty sessions
// over sixteen distinct registration sequences per build, whose neighbours
// share a prefix (the event queue, the hierarchy) and part ways after it.
// Hosts rotate through three geometries so that machines are recycled
// between unlike sessions too.
func sharingMatrix() []core.SessionConfig {
	hosts := []uarch.Config{platform.IntelXeon(), platform.M1Pro(), platform.FireSimBase()}
	var out []core.SessionConfig
	for _, cpu := range core.AllCPUModels {
		se := core.GuestConfig{CPU: cpu, Mode: core.SE, Workload: "sieve", Scale: 16}
		mt, tlbs, ideal := se, se, se
		mt.Cores, tlbs.GuestTLBs, ideal.IdealMemory = 4, true, true
		fs := core.GuestConfig{CPU: cpu, Mode: core.FS, BootExit: true, BootKBs: 1}
		for _, gc := range []core.GuestConfig{se, fs, mt, tlbs, ideal} {
			for _, sf := range []float64{1.0, 0.97} {
				// A third of the default helper fanout: the binaries keep
				// their shape and the cold builds take a third of the time.
				out = append(out, core.SessionConfig{Guest: gc, Host: hosts[len(out)%len(hosts)],
					HostCode: hostmodel.Config{SizeFactor: sf, CalleeFanout: 4}})
			}
		}
	}
	return out
}

// TestSharedLayoutIdentity: each session of the matrix is run once with the
// stores emptied in front of it, which is what the parent commit computed,
// and then twice more with whatever the sessions before it left in the
// stores — in matrix order from empty (every layout is first built by
// somebody else's neighbour), and in reverse order on top of that. A layout
// followed one registration too far, a fork that copies one function too
// few, a machine that remembers a line: any of them moves a statistic.
func TestSharedLayoutIdentity(t *testing.T) {
	matrix := sharingMatrix()
	want := make([]string, len(matrix))
	for i, sc := range matrix {
		core.DropStores()
		want[i] = digest(t, sc)
	}
	core.DropStores()
	check := func(pass string, i int) {
		if got := digest(t, matrix[i]); got != want[i] {
			t.Errorf("%s: session %d (%+v, build %g on %s) differs from its cold run:\n--- warm ---\n%s\n--- cold ---\n%s",
				pass, i, matrix[i].Guest, matrix[i].HostCode.SizeFactor, matrix[i].Host.Name, got, want[i])
		}
	}
	for i := range matrix {
		check("forward", i)
	}
	for i := len(matrix) - 1; i >= 0; i-- {
		check("reverse", i)
	}
	nl, nm, ni := core.StoreLens()
	cl, cm, ci := core.StoreCaps()
	if nl == 0 || nm == 0 || ni == 0 || nl > cl || nm > cm || ni > ci {
		t.Errorf("stores hold %d layouts, %d machines, %d images; bounds are %d, %d, %d and none should be empty",
			nl, nm, ni, cl, cm, ci)
	}
}

// streamDigest hashes every sink call.
type streamDigest struct{ h, n uint64 }

func (s *streamDigest) mix(vs ...uint64) {
	s.n++
	for _, v := range vs {
		s.h = (s.h ^ v) * 1099511628211
	}
}
func (s *streamDigest) FetchBlock(addr uint64, bytes, uops uint32) {
	s.mix(1, addr, uint64(bytes), uint64(uops))
}
func (s *streamDigest) Branch(pc, target uint64, taken, indirect bool) {
	s.mix(2, pc, target, b2u(taken), b2u(indirect))
}
func (s *streamDigest) Data(addr uint64, size uint32, write bool) {
	s.mix(3, addr, uint64(size), b2u(write))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestFollowerOfTheOtherModeForks is the mid-way divergence with real
// guests: an SE build that follows the layout an FS build published shares
// its EventQueue::* prefix and nothing after it, and must emit, address for
// address, the stream of an SE build that followed nothing.
func TestFollowerOfTheOtherModeForks(t *testing.T) {
	se := core.GuestConfig{CPU: core.Timing, Mode: core.SE, Workload: "sieve", Scale: 16}
	fs := core.GuestConfig{CPU: core.Timing, Mode: core.FS, BootExit: true, BootKBs: 1}
	run := func(gc core.GuestConfig, cm *hostmodel.CodeModel) {
		t.Helper()
		g, err := core.BuildGuest(gc, cm)
		if err == nil {
			_, err = g.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var alone, other, following streamDigest
	private := hostmodel.New(hostmodel.Config{}, &alone)
	run(se, private)

	fsModel := hostmodel.New(hostmodel.Config{}, &other)
	run(fs, fsModel)
	follower := hostmodel.Follow(hostmodel.Config{}, &following, []*hostmodel.Layout{fsModel.Publish()})
	run(se, follower)

	if alone.n == 0 || following != alone {
		t.Errorf("SE after FS: %d records, sum %#x; private SE build: %d records, sum %#x", following.n, following.h, alone.n, alone.h)
	}
	if follower.NumFuncs() != private.NumFuncs() || follower.TextBytes() != private.TextBytes() ||
		follower.CalledFuncs() != private.CalledFuncs() {
		t.Errorf("SE after FS: %d funcs, %d text bytes, %d called; private: %d, %d, %d", follower.NumFuncs(),
			follower.TextBytes(), follower.CalledFuncs(), private.NumFuncs(), private.TextBytes(), private.CalledFuncs())
	}
	for fn := 0; fn < private.NumFuncs(); fn++ {
		if a, b := follower.FuncName(sim.FuncID(fn)), private.FuncName(sim.FuncID(fn)); a != b {
			t.Fatalf("function %d is %q after FS and %q alone", fn, a, b)
		}
	}
}

// TestConcurrentSessionsShareLayouts: eight goroutines run mixed sessions
// at once, from empty stores, so that layouts are built, published,
// followed and evicted and machines taken, reset and returned concurrently.
// Every result must be its cold one; under -race this is also the proof
// that a published layout is only read.
func TestConcurrentSessionsShareLayouts(t *testing.T) {
	var mix []core.SessionConfig
	for _, sc := range sharingMatrix() {
		if sc.Guest.Cores == 0 && !sc.Guest.GuestTLBs && sc.Guest.CPU != core.Minor { // SE, FS, ideal x 3 CPUs x 2 builds
			mix = append(mix, sc)
		}
	}
	want := make([]string, len(mix))
	for i, sc := range mix {
		core.DropStores()
		want[i] = digest(t, sc)
	}
	core.DropStores()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				i := (g*5 + k*7) % len(mix)
				res, err := core.RunSession(mix[i])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if digestOf(res) != want[i] {
					t.Errorf("goroutine %d: session %d (%+v) differs from its cold run", g, i, mix[i].Guest)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStoresAreBounded: two hundred sessions, each on a simulator binary
// and a host geometry nobody has asked for before, must leave the process
// no bigger than a handful do: the stores evict.
func TestStoresAreBounded(t *testing.T) {
	inuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	session := func(i int) {
		host := platform.FireSimRocket(16<<(i%2), 4<<(i%2), 16<<(i/2%2), 4<<(i/2%2), 256<<(i/4%3), 8)
		host.STLBEntries += i // a geometry of its own
		_, err := core.RunSession(core.SessionConfig{
			Guest:    core.GuestConfig{CPU: core.Atomic, Mode: core.SE, Workload: "sieve", Scale: 16, IdealMemory: true},
			Host:     host,
			HostCode: hostmodel.Config{SizeFactor: 0.9 + float64(i)/4000, CalleeFanout: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	core.DropStores()
	base := inuse()
	for i := 0; i < 8; i++ {
		session(i)
	}
	few := inuse() - base
	for i := 8; i < 200; i++ {
		session(i)
	}
	many := inuse() - base
	nl, nm, ni := core.StoreLens()
	cl, cm, ci := core.StoreCaps()
	t.Logf("heap in use over the baseline: %.1f MB after 8 sessions, %.1f MB after 200; stores hold %d/%d layouts, %d/%d units, %d/%d images",
		float64(few)/(1<<20), float64(many)/(1<<20), nl, cl, nm, cm, ni, ci)
	if nl > cl || nm > cm || ni > ci {
		t.Errorf("a store is over its bound")
	}
	if many > 2*few+(1<<20) {
		t.Errorf("heap grew from %d to %d bytes between the 8th and the 200th distinct session", few, many)
	}
}

// TestHostCodePartialOverride: a HostCode that sets some fields overrides
// those and takes the defaults for the rest (it used to be discarded whole
// unless TextBase was set), and every spelling of the default binary is the
// default binary.
func TestHostCodePartialOverride(t *testing.T) {
	run := func(hc hostmodel.Config) *core.SessionResult {
		t.Helper()
		res, err := core.RunSession(core.SessionConfig{
			Guest:    core.GuestConfig{CPU: core.Timing, Workload: "sieve", Scale: 256},
			Host:     platform.IntelXeon(),
			HostCode: hc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := run(hostmodel.Config{})
	for name, hc := range map[string]hostmodel.Config{
		"DefaultConfig()": hostmodel.DefaultConfig(),
		"{SizeFactor: 1}": {SizeFactor: 1},
	} {
		if res := run(hc); res.Host != def.Host || res.NumFuncs != def.NumFuncs || res.TextBytes != def.TextBytes {
			t.Errorf("%s is not the default binary: %d funcs, %.9g s; default %d funcs, %.9g s",
				name, res.NumFuncs, res.SimSeconds(), def.NumFuncs, def.SimSeconds())
		}
	}
	lean := run(hostmodel.Config{CalleeFanout: 2, CalleesPerCall: 1})
	if lean.NumFuncs >= def.NumFuncs/3 || lean.SimSeconds() >= def.SimSeconds() {
		t.Errorf("CalleeFanout 2: %d functions, %.6g s; the default binary has %d and takes %.6g s",
			lean.NumFuncs, lean.SimSeconds(), def.NumFuncs, def.SimSeconds())
	}
	if lean.TextBytes != def.TextBytes {
		t.Errorf("CalleeFanout 2 moved the text arena: %d bytes, default %d", lean.TextBytes, def.TextBytes)
	}
}

// TestInvalidHostConfigsAreErrors: a host or code-model config that cannot
// be built is a named error from every entry point, raised before a store
// is touched — not a panic out of a constructor.
func TestInvalidHostConfigsAreErrors(t *testing.T) {
	guest := core.GuestConfig{CPU: core.Timing, Workload: "sieve", Scale: 128}
	host := func(edit func(*uarch.Config)) core.SessionConfig {
		sc := core.SessionConfig{Guest: guest, Host: platform.IntelXeon()}
		edit(&sc.Host)
		return sc
	}
	code := func(hc hostmodel.Config) core.SessionConfig {
		return core.SessionConfig{Guest: guest, Host: platform.IntelXeon(), HostCode: hc}
	}
	core.DropStores()
	for _, tc := range []struct {
		name string
		sc   core.SessionConfig
		want string
	}{
		{"17 ways", host(func(c *uarch.Config) { c.L1I.Ways = 17 }), "core: host: uarch: Intel_Xeon: L1I: 17 ways, want 1..16"},
		{"no host", core.SessionConfig{Guest: guest}, "core: host: uarch: : frequency and page size required"},
		{"zero line", host(func(c *uarch.Config) { c.L1D.LineBytes = 0 }), "core: host: uarch: Intel_Xeon: L1D: line size 0"},
		{"no iTLB", host(func(c *uarch.Config) { c.ITLBEntries = 0 }), "core: host: uarch: Intel_Xeon: every TLB needs at least one entry"},
		{"BTB of 1000", host(func(c *uarch.Config) { c.BTBEntries = 1000 }), "core: host: uarch: Intel_Xeon: predictor sizes must be powers of two"},
		{"no predictor", host(func(c *uarch.Config) { c.BPTableEntries = 0 }), "core: host: uarch: Intel_Xeon: predictor sizes must be powers of two"},
		{"3000 slots", code(hostmodel.Config{TextSlots: 3000}), "core: host code: hostmodel: TextSlots must be a power of two"},
		{"64-byte slots", code(hostmodel.Config{SlotBytes: 64}), "core: host code: hostmodel: SlotBytes must be a power of two >= 128"},
		{"negative size factor", code(hostmodel.Config{SizeFactor: -0.5}), "core: host code: hostmodel: SizeFactor"},
		{"negative fanout", code(hostmodel.Config{CalleeFanout: -1}), "core: host code: hostmodel: CalleeFanout"},
		{"text past 2^47", code(hostmodel.Config{TextBase: hostmodel.AddrLimit - 1<<20, TextSlots: 256, SlotBytes: 4 << 10}), "core: host code: hostmodel: the text arena at 0x7ffffff00000"},
		{"heap past 2^47", code(hostmodel.Config{HeapBase: hostmodel.AddrLimit - 24<<20}), "core: host code: hostmodel: the heap at 0x7ffffe800000"},
		{"stack at 2^47", code(hostmodel.Config{StackBase: hostmodel.AddrLimit}), "core: host code: hostmodel: StackBase 0x800000000000 is not below 2^47"},
	} {
		for entry, call := range map[string]func() error{
			"RunSession":     func() error { _, err := core.RunSession(tc.sc); return err },
			"IntervalRunner": func() error { _, err := intervalWindow(tc.sc, nil, 0, 100); return err },
		} {
			err := call()
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Errorf("%s: %s: got %v, want an error starting %q", tc.name, entry, err, tc.want)
			}
		}
	}
	if err := core.OnMachine(uarch.Config{Name: "nothing"}, func(*uarch.Machine) { t.Error("fn ran on an invalid host") }); err == nil ||
		!strings.HasPrefix(err.Error(), "core: host: uarch: nothing:") {
		t.Errorf("OnMachine: got %v", err)
	}
	if nl, nm, _ := core.StoreLens(); nl != 0 || nm != 0 {
		t.Errorf("rejected configs left %d layouts and %d machines in the stores", nl, nm)
	}
}

// panicAfter is an ExecTrace that blows up in the middle of a run.
type panicAfter struct{ lines int }

func (w *panicAfter) Write(p []byte) (int, error) {
	if w.lines--; w.lines < 0 {
		panic("exec trace writer gave up")
	}
	return len(p), nil
}

// TestBrokenSessionLeavesStoresUsable: a session that panics mid-run, or
// fails after it has drawn its machine, gives the machine back half used —
// and the next session on those structure sizes must still be byte for
// byte its cold self. A session runs on its caller's goroutine: none of
// them starts another.
func TestBrokenSessionLeavesStoresUsable(t *testing.T) {
	sc := core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.Timing, Workload: "sieve", Scale: 256},
		Host:  platform.M1Pro(),
	}
	core.DropStores()
	before := runtime.NumGoroutine()
	want := digest(t, sc)

	broken := sc
	broken.Guest.ExecTrace = &panicAfter{lines: 700}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the run survived its exec-trace writer")
			}
		}()
		core.RunSession(broken)
	}()
	unbuildable := sc
	unbuildable.Guest.Workload = "no_such_workload"
	if _, err := core.RunSession(unbuildable); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, nu, _ := core.StoreLens(); nu == 0 {
		t.Error("the broken sessions did not give their machine back")
	}
	sc.Guest.ExecTrace = io.Discard // observation only: not part of the result
	if got := digest(t, sc); got != want {
		t.Error("the session after a broken one differs from its cold run")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines %d -> %d", before, after)
	}
}

// TestIntervalRunnerClose: Close hands the runner's machine back; the
// results it returned stay valid, and a Run after Close starts over on a
// cold machine, like a new runner's first.
func TestIntervalRunnerClose(t *testing.T) {
	sc := core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.Timing, Workload: "sieve", Scale: 512},
		Host:  platform.IntelXeon(),
	}
	core.DropStores()
	r := core.NewIntervalRunner([]core.SessionConfig{sc})
	run := func() (*core.IntervalResult, error) {
		res, err := r.Run(nil, 100, 600)
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
	first, err := run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if second.Seconds >= first.Seconds {
		t.Errorf("the second window (%.6g s) is not warmer than the first (%.6g s): the machine was not kept", second.Seconds, first.Seconds)
	}
	if _, nu, _ := core.StoreLens(); nu != 0 {
		t.Errorf("%d idle units while the runner holds its machine", nu)
	}
	counts := first.Counts
	r.Close()
	r.Close() // idempotent
	if got, want := fmt.Sprint(core.IdleUnits()), "map[DSB:1 L1D:1 L1I:1 L2:1 LLC:1 predictor:1 translation:1]"; got != want {
		t.Errorf("idle units after Close: %s, want the runner's machine's %s", got, want)
	}
	again, err := run()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if again.Seconds != first.Seconds || again.Counts != counts {
		t.Errorf("a window after Close: %.9g s, a new runner's first: %.9g s", again.Seconds, first.Seconds)
	}
	if first.Counts != counts {
		t.Error("Close changed a result already returned")
	}
}

// TestGuestsShareDecodedImage: the words of a (workload, scale) are decoded
// once, into the images store. Every core of two guests of one image
// fetches through one table, a guest of another scale through another, and
// a boot-exit guest, which has no workload image, through none.
func TestGuestsShareDecodedImage(t *testing.T) {
	build := func(gc core.GuestConfig) *core.GuestSystem {
		t.Helper()
		g, err := core.BuildGuest(gc, sim.NewNopTracer())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	mt := core.GuestConfig{CPU: core.Timing, Mode: core.SE, Workload: "matmul_mt", Scale: 64, Cores: 4}
	first := build(mt)
	dec := first.CPUs[0].Core().Decoded()
	if dec == nil {
		t.Fatal("a workload guest's core has no predecoded image")
	}
	for _, g := range []*core.GuestSystem{first, build(mt)} {
		for _, c := range g.CPUs {
			if c.Core().Decoded() != dec {
				t.Fatalf("%s fetches through a table of its own", c.Name())
			}
		}
	}
	other := mt
	other.Scale = 81
	if build(other).CPUs[0].Core().Decoded() == dec {
		t.Fatal("a guest of another scale shares the table")
	}
	boot := build(core.GuestConfig{CPU: core.Timing, Mode: core.FS, BootExit: true, BootKBs: 1})
	if boot.CPUs[0].Core().Decoded() != nil {
		t.Fatal("a boot-exit guest has a predecoded image")
	}
}

// TestGuestsShareKernelImage: an FS kernel is assembled once per
// workloads.KernelConfig, into the images store, beside the workloads. Two
// guests of one config built at once load from the program a first guest
// assembled, so the store still holds that one kernel; a guest with another
// boot size or another number of harts stores another. Under -race this is
// the proof that loading a kernel only reads it.
func TestGuestsShareKernelImage(t *testing.T) {
	build := func(gc core.GuestConfig) {
		if _, err := core.BuildGuest(gc, sim.NewNopTracer()); err != nil {
			t.Error(err)
		}
	}
	core.DropStores()
	boot := core.GuestConfig{CPU: core.Timing, Mode: core.FS, BootExit: true, BootKBs: 1}
	build(boot)
	kerns := core.Kernels()
	if len(kerns) != 1 {
		t.Fatalf("one FS guest stored %d kernels", len(kerns))
	}
	kern := kerns[0]
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			build(boot)
		}()
	}
	wg.Wait()
	if got := core.Kernels(); len(got) != 1 || got[0] != kern {
		t.Errorf("three guests of one kernel config stored %d kernels, want the first guest's alone", len(got))
	}
	bigger, harts := boot, boot
	bigger.BootKBs = 2
	harts.Cores = 2
	for i, gc := range []core.GuestConfig{bigger, harts} {
		build(gc)
		if got := core.Kernels(); len(got) != i+2 || got[0] == kern {
			t.Errorf("a guest of %d KB boot on %d harts did not store a kernel of its own: %d kernels stored", gc.BootKBs, gc.Cores, len(got))
		}
	}
}
