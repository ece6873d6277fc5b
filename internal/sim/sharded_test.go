package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// seqTracer records the exact sequence of Call/Data records it receives.
// Under sharded execution it is fed by the replayer, so its recorded order
// is precisely the order the host model would see — the thing that must be
// bit-identical to the serial run.
type seqTracer struct {
	NopTracer
	log   []string
	hints []int // shard hints interleaved positions (diagnostic only)
}

func (t *seqTracer) Call(fn FuncID) { t.log = append(t.log, fmt.Sprintf("C%d", fn)) }
func (t *seqTracer) Data(addr uint64, size uint32, write bool) {
	t.log = append(t.log, fmt.Sprintf("D%x/%d/%v", addr, size, write))
}
func (t *seqTracer) SetShardHint(shard int) { t.hints = append(t.hints, shard) }

// splitmix is a tiny deterministic PRNG for workload generation.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b289
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const testQuantum = Tick(15000)

// shardWorkload drives a synthetic two-domain system shaped like the real
// one: CPU tick events that issue memory accesses across the domain
// boundary, memory events that respond at least a quantum later, and
// deliberate same-tick collisions between the domains to stress the
// provenance-stamp ordering.
type shardWorkload struct {
	sys    *System // root (cpu+dev shard)
	msys   *System // DomainMem view (== sys when serial)
	fnCPU  FuncID
	fnMem  FuncID
	fnResp FuncID
	rng    splitmix
	issued int
	maxOps int
	retire uint64
	exitAt int // retire count at which to RequestExit (0 = never)
	// oneShot issues the accesses and responses through System.OneShot
	// instead of a fresh event each (TestOneShotRecycle).
	oneShot bool
}

func newShardWorkload(sys *System, seed uint64, maxOps, exitAt int) *shardWorkload {
	w := &shardWorkload{
		sys:    sys,
		msys:   sys.DomainView(DomainMem),
		rng:    splitmix(seed),
		maxOps: maxOps,
		exitAt: exitAt,
	}
	tr := sys.Tracer()
	w.fnCPU = tr.RegisterFunc("test::cpuTick", 100, FuncHot)
	w.fnMem = tr.RegisterFunc("test::memAccess", 200, 0)
	w.fnResp = tr.RegisterFunc("test::resp", 50, FuncHot)
	return w
}

// start schedules the initial CPU tick chain.
func (w *shardWorkload) start() {
	tick := NewEventPrio("cpu.tick", w.fnCPU, PrioCPUTick, nil)
	var body func()
	body = func() {
		w.sys.Tracer().Call(w.fnCPU)
		w.sys.Tracer().Data(uint64(w.sys.Now())<<8|uint64(w.issued&0xff), 8, false)
		if w.issued < w.maxOps {
			w.issued++
			id := w.issued
			// Issue a memory access across the domain boundary. Delays are
			// multiples of the clock period so cross-domain same-tick
			// collisions actually happen.
			d := Tick(1000 * (1 + w.rng.next()%40))
			if w.oneShot {
				w.sys.OneShot("mem.acc", w.fnMem, DomainMem, d, func() { w.memFire(id) })
			} else {
				acc := NewEvent(fmt.Sprintf("mem.acc.%d", id), w.fnMem, nil).SetDomain(DomainMem)
				acc.fire = func() { w.memFire(id) }
				w.sys.ScheduleIn(acc, d)
			}
			w.sys.ScheduleIn(tick, 1000)
		}
	}
	tick.fire = body
	w.sys.Schedule(tick, 1000)
}

// memFire runs on the memory shard: record work, respond >= quantum later.
// It derives its delay from a pure per-id hash, not the shared rng stream —
// under sharding it runs concurrently with the CPU-side generator.
func (w *shardWorkload) memFire(id int) {
	tr := w.msys.Tracer()
	tr.Call(w.fnMem)
	tr.Data(uint64(w.msys.Now())<<8|uint64(id&0xff), 64, true)
	h := splitmix(uint64(id) * 0x5851f42d4c957f2d)
	extra := Tick(1000 * (h.next() % 8))
	if w.oneShot {
		w.msys.OneShot("mem.resp", w.fnResp, DomainCPU, testQuantum+1000+extra, func() { w.respFire(id) })
		return
	}
	resp := NewEvent(fmt.Sprintf("mem.resp.%d", id), w.fnResp, nil) // DomainCPU
	resp.fire = func() { w.respFire(id) }
	w.msys.ScheduleIn(resp, testQuantum+1000+extra)
}

// respFire runs back on the CPU shard.
func (w *shardWorkload) respFire(id int) {
	tr := w.sys.Tracer()
	tr.Call(w.fnResp)
	tr.Data(uint64(w.sys.Now())<<8|uint64(id&0xff), 8, false)
	w.retire++
	if w.exitAt > 0 && w.retire == uint64(w.exitAt) {
		w.sys.RequestExit("test exit", 7)
	}
}

type shardRunOut struct {
	res     RunResult
	log     []string
	evServ  uint64
	retired uint64
}

// runWorkload builds and runs one workload; shards<2 runs serial.
func runWorkload(t *testing.T, shards int, calendar bool, seed uint64, maxOps, exitAt int, limit Tick) shardRunOut {
	t.Helper()
	return runWorkloadVia(t, false, shards, calendar, seed, maxOps, exitAt, limit)
}

// runWorkloadVia is runWorkload with the choice of how accesses and responses
// are posted: a fresh event each, or System.OneShot.
func runWorkloadVia(t *testing.T, oneShot bool, shards int, calendar bool, seed uint64, maxOps, exitAt int, limit Tick) shardRunOut {
	t.Helper()
	var q Queue
	if calendar {
		q = NewCalendarQueue(256, 1000)
	} else {
		q = NewHeapQueue()
	}
	tr := &seqTracer{}
	sys := NewSystemWith(q, tr, 42)
	newQ := func() Queue {
		if calendar {
			return NewCalendarQueue(256, 1000)
		}
		return NewHeapQueue()
	}
	sys.EnableSharding(ShardConfig{Shards: shards, Quantum: QuantumFor(testQuantum), NewQueue: newQ})
	if shards >= 2 && !sys.Sharded() {
		t.Fatal("EnableSharding did not take effect")
	}
	w := newShardWorkload(sys, seed, maxOps, exitAt)
	w.oneShot = oneShot
	w.start()
	res := sys.Run(limit, 0)
	return shardRunOut{res: res, log: tr.log, evServ: sys.EventsServiced(), retired: w.retire}
}

// TestShardedBitIdentical is the core contract: the sharded run's result,
// host-visible trace order, and event counts are identical to the serial
// run's, for both queue backends and across seeds.
func TestShardedBitIdentical(t *testing.T) {
	for _, calendar := range []bool{false, true} {
		for seed := uint64(1); seed <= 8; seed++ {
			serial := runWorkload(t, 1, calendar, seed, 300, 0, MaxTick)
			sharded := runWorkload(t, 2, calendar, seed, 300, 0, MaxTick)
			name := fmt.Sprintf("calendar=%v/seed=%d", calendar, seed)
			if serial.res != sharded.res {
				t.Fatalf("%s: RunResult diverged: serial %+v sharded %+v", name, serial.res, sharded.res)
			}
			if serial.evServ != sharded.evServ {
				t.Fatalf("%s: EventsServiced diverged: %d vs %d", name, serial.evServ, sharded.evServ)
			}
			if serial.retired != sharded.retired {
				t.Fatalf("%s: retire count diverged: %d vs %d", name, serial.retired, sharded.retired)
			}
			if !reflect.DeepEqual(serial.log, sharded.log) {
				i := 0
				for i < len(serial.log) && i < len(sharded.log) && serial.log[i] == sharded.log[i] {
					i++
				}
				t.Fatalf("%s: trace diverged at record %d (of %d/%d): serial %q sharded %q",
					name, i, len(serial.log), len(sharded.log),
					tail(serial.log, i), tail(sharded.log, i))
			}
		}
	}
}

func tail(log []string, i int) []string {
	if i >= len(log) {
		return nil
	}
	end := i + 5
	if end > len(log) {
		end = len(log)
	}
	return log[i:end]
}

// TestShardedExitTruncation: a component-requested exit must leave results
// identical to serial, including the partial tick's event set.
func TestShardedExitTruncation(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, exitAt := range []int{1, 17, 100} {
			serial := runWorkload(t, 1, false, seed, 300, exitAt, MaxTick)
			sharded := runWorkload(t, 2, false, seed, 300, exitAt, MaxTick)
			name := fmt.Sprintf("seed=%d/exitAt=%d", seed, exitAt)
			if serial.res != sharded.res {
				t.Fatalf("%s: RunResult diverged: serial %+v sharded %+v", name, serial.res, sharded.res)
			}
			if serial.res.Status != ExitRequested || serial.res.ExitCode != 7 {
				t.Fatalf("%s: unexpected serial exit %+v", name, serial.res)
			}
			if !reflect.DeepEqual(serial.log, sharded.log) {
				t.Fatalf("%s: trace diverged (%d vs %d records)", name, len(serial.log), len(sharded.log))
			}
		}
	}
}

// TestShardedTickLimit: limit-bounded runs agree too.
func TestShardedTickLimit(t *testing.T) {
	for _, limit := range []Tick{10_000, 123_000, 1_000_000} {
		serial := runWorkload(t, 1, false, 3, 300, 0, limit)
		sharded := runWorkload(t, 2, false, 3, 300, 0, limit)
		if serial.res != sharded.res {
			t.Fatalf("limit=%d: RunResult diverged: serial %+v sharded %+v", limit, serial.res, sharded.res)
		}
		if !reflect.DeepEqual(serial.log, sharded.log) {
			t.Fatalf("limit=%d: trace diverged (%d vs %d records)", limit, len(serial.log), len(sharded.log))
		}
	}
}

// TestShardedMultiRun: Run may be called repeatedly with growing limits
// (how the experiment drivers advance in intervals).
func TestShardedMultiRun(t *testing.T) {
	run := func(shards int) ([]RunResult, []string, uint64) {
		tr := &seqTracer{}
		sys := NewSystemWith(NewHeapQueue(), tr, 42)
		sys.EnableSharding(ShardConfig{Shards: shards, Quantum: testQuantum})
		w := newShardWorkload(sys, 5, 200, 0)
		w.start()
		var rs []RunResult
		for _, lim := range []Tick{50_000, 150_000, MaxTick} {
			rs = append(rs, sys.Run(lim, 0))
		}
		return rs, tr.log, sys.EventsServiced()
	}
	sr, slog, sev := run(1)
	pr, plog, pev := run(2)
	if !reflect.DeepEqual(sr, pr) {
		t.Fatalf("multi-run results diverged:\nserial  %+v\nsharded %+v", sr, pr)
	}
	if sev != pev {
		t.Fatalf("EventsServiced diverged: %d vs %d", sev, pev)
	}
	if !reflect.DeepEqual(slog, plog) {
		t.Fatalf("trace diverged (%d vs %d records)", len(slog), len(plog))
	}
}

// TestShardedQuantumViolationPanics: a memory-side cross post below the
// quantum floor must fail loudly, identifying the shard and window.
func TestShardedQuantumViolationPanics(t *testing.T) {
	sys := NewSystem(42)
	sys.EnableSharding(ShardConfig{Shards: 2, Quantum: testQuantum})
	msys := sys.DomainView(DomainMem)
	bad := NewEvent("bad.acc", 0, nil).SetDomain(DomainMem)
	bad.fire = func() {
		resp := NewEvent("bad.resp", 0, func() {})
		msys.ScheduleIn(resp, testQuantum-1) // below the floor
	}
	sys.Schedule(bad, 5000)
	kick := NewEvent("cpu.kick", 0, func() {})
	sys.Schedule(kick, 100_000)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a quantum-barrier panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "quantum barrier") || !strings.Contains(msg, "shard 1 (mem)") {
			t.Fatalf("panic message lacks shard/window context: %q", msg)
		}
	}()
	sys.Run(MaxTick, 0)
}

// TestShardedDomainViewIdentity: without sharding every view is the root;
// with sharding the memory view is distinct and shares the registry.
func TestShardedDomainViewIdentity(t *testing.T) {
	sys := NewSystem(1)
	if sys.DomainView(DomainMem) != sys || sys.Sharded() {
		t.Fatal("unsharded system should be its own view")
	}
	sys.EnableSharding(ShardConfig{Shards: 2, Quantum: testQuantum})
	mv := sys.DomainView(DomainMem)
	if mv == sys {
		t.Fatal("sharded mem view should be distinct")
	}
	if sys.DomainView(DomainDev) != sys || sys.DomainView(DomainCPU) != sys {
		t.Fatal("cpu/dev domains should fuse onto the root shard")
	}
	if mv.Stats() != sys.Stats() || mv.Rand() != sys.Rand() {
		t.Fatal("views must share registry state")
	}
	mv.Register(named("behind-the-bus"))
	if sys.Object("behind-the-bus") == nil {
		t.Fatal("registration through a view must land in the shared namespace")
	}
	// Shards > 2 clamp to the two partitionable domains.
	s2 := NewSystem(1)
	s2.EnableSharding(ShardConfig{Shards: 8, Quantum: testQuantum})
	if !s2.Sharded() {
		t.Fatal("shards=8 should clamp to 2, not disable")
	}
}

type named string

func (n named) Name() string { return string(n) }

// TestShardedShardHints: the replayer annotates shard transitions for
// diagnostic consumers without perturbing the record stream.
func TestShardedShardHints(t *testing.T) {
	tr := &seqTracer{}
	sys := NewSystemWith(NewHeapQueue(), tr, 42)
	sys.EnableSharding(ShardConfig{Shards: 2, Quantum: testQuantum})
	w := newShardWorkload(sys, 9, 50, 0)
	w.start()
	sys.Run(MaxTick, 0)
	if len(tr.hints) == 0 {
		t.Fatal("expected shard hints from the replayer")
	}
	seen := map[int]bool{}
	for _, h := range tr.hints {
		seen[h] = true
	}
	if !seen[1] {
		t.Fatal("memory shard never hinted")
	}
}
