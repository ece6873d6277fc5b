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
	log []string
}

func (t *seqTracer) Call(fn FuncID) { t.log = append(t.log, fmt.Sprintf("C%d", fn)) }
func (t *seqTracer) Data(addr uint64, size uint32, write bool) {
	t.log = append(t.log, fmt.Sprintf("D%x/%d/%v", addr, size, write))
}

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

// shardWorkload drives a synthetic system shaped like the real one: one tick
// chain per guest core on the CPU shard, each issuing memory accesses across
// the shard boundary; memory events that respond at least a quantum later;
// cross-core pokes (Reschedules of a sibling's event, some at the very same
// tick); and deliberate same-tick collisions between the shards to stress the
// provenance-stamp ordering.
type shardWorkload struct {
	sys    *System // root (cpu+dev shard)
	msys   *System // DomainMem view (== sys when serial)
	fnCPU  FuncID
	fnMem  FuncID
	fnResp FuncID
	fnPoke FuncID
	rng    splitmix
	cores  int
	issued int
	maxOps int
	retire uint64
	poked  uint64
	exitAt int      // retire count at which to RequestExit (0 = never)
	pokeEv []*Event // per-core reschedulable poke targets
	// oneShot issues the accesses and responses through System.OneShot
	// instead of a fresh event each (TestOneShotRecycle).
	oneShot bool
}

// The workload's minimum cross-shard delays; any configured floor at or below
// them is valid.
const (
	minAccessDelay = Tick(1000)
	minRespDelay   = testQuantum + 1000
)

func newShardWorkload(sys *System, cores int, seed uint64, maxOps, exitAt int) *shardWorkload {
	w := &shardWorkload{
		sys:    sys,
		msys:   sys.DomainView(DomainMem),
		rng:    splitmix(seed),
		cores:  cores,
		maxOps: maxOps,
		exitAt: exitAt,
	}
	tr := sys.Tracer()
	w.fnCPU = tr.RegisterFunc("test::cpuTick", 100, 0)
	w.fnMem = tr.RegisterFunc("test::memAccess", 200, 0)
	w.fnResp = tr.RegisterFunc("test::resp", 50, 0)
	w.fnPoke = tr.RegisterFunc("test::poke", 30, 0)
	return w
}

// start schedules every core's initial tick. The shared rng is safe: all
// CPU-side events execute on the coordinator in the serial order.
func (w *shardWorkload) start() {
	for i := 0; i < w.cores; i++ {
		core := i
		poke := NewEvent(fmt.Sprintf("cpu%d.poke", core), w.fnPoke, nil)
		poke.fire = func() {
			w.poked++
			w.sys.TraceCall(w.fnPoke)
			w.sys.TraceData(uint64(core)<<32|uint64(w.sys.Now()), 4, true)
		}
		w.pokeEv = append(w.pokeEv, poke)

		tick := NewEventPrio(fmt.Sprintf("cpu%d.tick", core), w.fnCPU, PrioCPUTick, nil)
		tick.fire = func() {
			w.sys.TraceCall(w.fnCPU)
			w.sys.TraceData(uint64(w.sys.Now())<<8|uint64(w.issued&0xff), 8, false)
			if w.issued >= w.maxOps {
				return
			}
			w.issued++
			id := w.issued
			r := w.rng.next()
			// Issue a memory access across the shard boundary. Delays are
			// multiples of the clock period so cross-shard same-tick
			// collisions actually happen.
			d := minAccessDelay * Tick(1+r%40)
			if w.oneShot {
				w.sys.OneShot("mem.acc", w.fnMem, DomainMem, d, func() { w.memFire(id) })
			} else {
				acc := NewEvent(fmt.Sprintf("mem.acc.%d", id), w.fnMem, nil).SetDomain(DomainMem)
				acc.fire = func() { w.memFire(id) }
				w.sys.ScheduleIn(acc, d)
			}
			// Cross-core poke: a relaxed Reschedule of a sibling's event,
			// sometimes at the very same tick.
			if w.cores > 1 && r%3 == 0 {
				sib := (core + 1 + int(r>>8)%(w.cores-1)) % w.cores
				w.sys.Reschedule(w.pokeEv[sib], w.sys.Now()+Tick(1000*(r>>16%3)))
			}
			w.sys.ScheduleIn(tick, 1000)
		}
		w.sys.Schedule(tick, Tick(1000*(1+core)))
	}
}

// memFire runs on the memory shard: record work, respond >= minRespDelay
// later. It derives its delay from a pure per-id hash, not the shared rng
// stream — under sharding it runs concurrently with the CPU-side generator.
func (w *shardWorkload) memFire(id int) {
	tr := w.msys.Tracer()
	tr.Call(w.fnMem)
	tr.Data(uint64(w.msys.Now())<<8|uint64(id&0xff), 64, true)
	h := splitmix(uint64(id) * 0x5851f42d4c957f2d)
	d := minRespDelay + Tick(1000*(h.next()%8))
	if w.oneShot {
		w.msys.OneShot("mem.resp", w.fnResp, DomainCPU, d, func() { w.respFire(id) })
		return
	}
	resp := NewEvent(fmt.Sprintf("mem.resp.%d", id), w.fnResp, nil) // DomainCPU
	resp.fire = func() { w.respFire(id) }
	w.msys.ScheduleIn(resp, d)
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
	res     []RunResult // one per Run call
	log     []string
	evServ  uint64
	retired uint64
}

// shardRun describes one leg of a serial-vs-sharded differential.
type shardRun struct {
	sharded  bool
	quantum  Tick // mem→cpu floor (sharded only); 0 = testQuantum
	busLook  Tick // cpu→mem floor (sharded only)
	calendar bool
	oneShot  bool
	cores    int // 0 = 1
	seed     uint64
	maxOps   int
	exitAt   int
	limits   []Tick // successive Run limits; nil = one Run to MaxTick
}

// run builds and runs one workload.
func (c shardRun) run() shardRunOut {
	newQ := func() Queue {
		if c.calendar {
			return NewCalendarQueue(256, 1000)
		}
		return NewHeapQueue()
	}
	tr := &seqTracer{}
	sys := NewSystemWith(newQ(), tr)
	if c.sharded {
		q := c.quantum
		if q == 0 {
			q = testQuantum
		}
		sys.EnableSharding(ShardConfig{Quantum: QuantumFor(q), BusLookahead: c.busLook, NewQueue: newQ})
	}
	cores := c.cores
	if cores == 0 {
		cores = 1
	}
	w := newShardWorkload(sys, cores, c.seed, c.maxOps, c.exitAt)
	w.oneShot = c.oneShot
	w.start()
	limits := c.limits
	if limits == nil {
		limits = []Tick{MaxTick}
	}
	out := shardRunOut{}
	for _, lim := range limits {
		out.res = append(out.res, sys.Run(lim, 0))
	}
	out.log, out.evServ, out.retired = tr.log, sys.EventsServiced(), w.retire+w.poked
	return out
}

// diffSharded runs c serially and sharded — at the default floors and at a
// few seeded random (Quantum, BusLookahead) pairs at or below the workload's
// real minimum delays — and requires results, event counts, and host-visible
// trace order to be identical. It returns the serial leg.
func diffSharded(t *testing.T, name string, c shardRun) shardRunOut {
	t.Helper()
	c.sharded = false
	serial := c.run()
	r := splitmix(c.seed*0x9e3779b97f4a7c15 + uint64(c.cores))
	floors := [][2]Tick{{testQuantum, 0}, {testQuantum, minAccessDelay}}
	for i := 0; i < 3; i++ {
		floors = append(floors, [2]Tick{
			1000 * Tick(1+r.next()%uint64(minRespDelay/1000)), // 1000..minRespDelay
			500 * Tick(r.next()%3),                            // 0, 500, or minAccessDelay
		})
	}
	for _, f := range floors {
		c.sharded, c.quantum, c.busLook = true, f[0], f[1]
		sharded := c.run()
		leg := fmt.Sprintf("%s/quantum=%d/buslook=%d", name, f[0], f[1])
		if !reflect.DeepEqual(serial.res, sharded.res) {
			t.Fatalf("%s: RunResult diverged: serial %+v sharded %+v", leg, serial.res, sharded.res)
		}
		if serial.evServ != sharded.evServ {
			t.Fatalf("%s: EventsServiced diverged: %d vs %d", leg, serial.evServ, sharded.evServ)
		}
		if serial.retired != sharded.retired {
			t.Fatalf("%s: retire/poke count diverged: %d vs %d", leg, serial.retired, sharded.retired)
		}
		if !reflect.DeepEqual(serial.log, sharded.log) {
			i := 0
			for i < len(serial.log) && i < len(sharded.log) && serial.log[i] == sharded.log[i] {
				i++
			}
			t.Fatalf("%s: trace diverged at record %d (of %d/%d): serial %q sharded %q",
				leg, i, len(serial.log), len(sharded.log),
				tail(serial.log, i), tail(sharded.log, i))
		}
	}
	return serial
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

// TestShardedBitIdentical is the core contract: the sharded run's result,
// host-visible trace order, and event counts are identical to the serial
// run's, for both queue backends, one- and four-core-shaped workloads, and
// across seeds and floors.
func TestShardedBitIdentical(t *testing.T) {
	for _, calendar := range []bool{false, true} {
		for _, cores := range []int{1, 4} {
			for seed := uint64(1); seed <= 6; seed++ {
				diffSharded(t, fmt.Sprintf("calendar=%v/cores=%d/seed=%d", calendar, cores, seed),
					shardRun{calendar: calendar, cores: cores, seed: seed, maxOps: 300})
			}
		}
	}
}

// TestShardedExitTruncation: a component-requested exit must leave results
// identical to serial, including the partial tick's event set.
func TestShardedExitTruncation(t *testing.T) {
	for _, cores := range []int{1, 4} {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, exitAt := range []int{1, 17, 100} {
				name := fmt.Sprintf("cores=%d/seed=%d/exitAt=%d", cores, seed, exitAt)
				serial := diffSharded(t, name, shardRun{cores: cores, seed: seed, maxOps: 300, exitAt: exitAt})
				if res := serial.res[0]; res.Status != ExitRequested || res.ExitCode != 7 {
					t.Fatalf("%s: unexpected serial exit %+v", name, res)
				}
			}
		}
	}
}

// TestShardedTickLimit: limit-bounded runs agree too.
func TestShardedTickLimit(t *testing.T) {
	for _, cores := range []int{1, 4} {
		for _, limit := range []Tick{10_000, 123_000, 1_000_000} {
			diffSharded(t, fmt.Sprintf("cores=%d/limit=%d", cores, limit),
				shardRun{cores: cores, seed: 3, maxOps: 300, limits: []Tick{limit}})
		}
	}
}

// TestShardedMultiRun: Run may be called repeatedly with growing limits
// (how the experiment drivers advance in intervals).
func TestShardedMultiRun(t *testing.T) {
	for _, cores := range []int{1, 4} {
		diffSharded(t, fmt.Sprintf("cores=%d", cores),
			shardRun{cores: cores, seed: 5, maxOps: 200, limits: []Tick{50_000, 150_000, MaxTick}})
	}
}

// TestShardedQuantumViolationPanics: a memory-side cross post below the
// quantum floor must fail loudly, identifying the shard and window.
func TestShardedQuantumViolationPanics(t *testing.T) {
	sys := NewSystem(42)
	sys.EnableSharding(ShardConfig{Quantum: testQuantum})
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

// TestPerEdgeViolationPanics: the other direction — a CPU-side cross post
// below the BusLookahead floor must fail as loudly, naming the edge and the
// floor.
func TestPerEdgeViolationPanics(t *testing.T) {
	t.Run("below_group_to_mem_floor", func(t *testing.T) {
		sys := NewSystem(42)
		sys.EnableSharding(ShardConfig{Quantum: testQuantum, BusLookahead: 1000})
		bad := NewEvent("cpu.bad", 0, nil)
		bad.fire = func() {
			acc := NewEvent("bad.acc", 0, func() {}).SetDomain(DomainMem)
			sys.ScheduleIn(acc, 500) // below the 1000-tick cpu→mem floor
		}
		sys.Schedule(bad, 5000)
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected a bus-lookahead panic")
			}
			msg := fmt.Sprint(r)
			for _, want := range []string{"cpu+dev→mem edge lookahead 1000", "floor 6000"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("panic message %q lacks %q", msg, want)
				}
			}
		}()
		sys.Run(MaxTick, 0)
	})
}

// TestShardedDomainViewIdentity: without sharding every view is the root;
// with sharding the memory view is distinct and shares the registry.
func TestShardedDomainViewIdentity(t *testing.T) {
	sys := NewSystem(1)
	if sys.DomainView(DomainMem) != sys || sys.Sharded() {
		t.Fatal("unsharded system should be its own view")
	}
	sys.EnableSharding(ShardConfig{Quantum: testQuantum})
	mv := sys.DomainView(DomainMem)
	if mv == sys {
		t.Fatal("sharded mem view should be distinct")
	}
	if sys.DomainView(DomainDev) != sys || sys.DomainView(DomainCPU) != sys {
		t.Fatal("cpu/dev domains should fuse onto the root shard")
	}
	if mv.Stats() != sys.Stats() {
		t.Fatal("views must share registry state")
	}
	mv.Register(named("behind-the-bus"))
	if sys.Object("behind-the-bus") == nil {
		t.Fatal("registration through a view must land in the shared namespace")
	}
}

type named string

func (n named) Name() string { return string(n) }
