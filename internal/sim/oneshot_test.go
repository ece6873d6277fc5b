package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestOneShotRecycle pins the lifetime rule of one-shot events: the queue
// that fires one takes it back only after its callback returned, so recycling
// is invisible to every caller.
func TestOneShotRecycle(t *testing.T) {
	// The cache hit response -> startFetch -> SendTiming chain: a
	// one-shot's callback posts the next one-shot at the same tick. The
	// new one must not be the event that is still firing, and however
	// long the chain runs it only ever needs the two.
	t.Run("heap/same-tick chain", func(t *testing.T) {
		sys := NewSystemWith(NewNopTracer())
		q := sys.Queue()
		seen := map[*Event]bool{}
		var firing *Event
		const n = 1000
		fired := 0
		var link func()
		link = func() {
			fired++
			if fired == n {
				return
			}
			sys.OneShot("link", 0, 0, link)
			if q.Peek() == firing {
				t.Fatalf("fire %d: the new one-shot is the event still firing", fired)
			}
		}
		sys.OneShot("link", 0, 0, link)
		for !q.Empty() {
			firing = q.Peek()
			seen[firing] = true
			q.ServiceOne()
		}
		if fired != n || len(seen) != 2 {
			t.Fatalf("%d fires used %d distinct events, want %d fires on 2", fired, len(seen), n)
		}
	})

	// k interleaved chains: the distinct events are the high-water mark
	// of outstanding ones (k queued or firing, plus the one being posted
	// from inside a callback), not the number of fires.
	t.Run("heap/high-water mark", func(t *testing.T) {
		sys := NewSystemWith(NewNopTracer())
		q := sys.Queue()
		const k, rounds = 7, 200
		fired := 0
		for i := 0; i < k; i++ {
			delay := Tick(100 * (i + 1))
			left := rounds
			var again func()
			again = func() {
				fired++
				if left--; left > 0 {
					sys.OneShot("chain", 0, delay, again)
				}
			}
			sys.OneShot("chain", 0, delay, again)
		}
		seen := map[*Event]bool{}
		for !q.Empty() {
			seen[q.Peek()] = true
			q.ServiceOne()
		}
		if fired != k*rounds || len(seen) != k+1 {
			t.Fatalf("%d fires used %d distinct events, want %d fires on %d", fired, len(seen), k*rounds, k+1)
		}
		if free := len(q.free); free != k+1 {
			t.Fatalf("%d events on the free list after the drain, want %d", free, k+1)
		}
	})

	// Invisible: a workload issuing every access and response through
	// OneShot produces the trace, the event count and the result of the same
	// workload allocating a fresh event each time.
	t.Run("same trace as fresh events", func(t *testing.T) {
		c := accessRun{seed: 3, maxOps: 400, cores: 4}
		want := c.run()
		c.oneShot = true
		if got := c.run(); !reflect.DeepEqual(got, want) {
			t.Errorf("one-shot run differs from the fresh-event run (%d vs %d records, result %+v vs %+v)",
				len(got.log), len(want.log), got.res, want.res)
		}
	})
}

// seqTracer records the exact sequence of Call/Data records it receives.
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

// accessRun drives a synthetic system shaped like a guest's: one tick chain
// per core, each issuing memory accesses that respond some cycles later,
// and cross-core pokes (Reschedules of a sibling's event, some at the very
// same tick). oneShot issues the accesses and responses through
// System.OneShot instead of a fresh event each.
type accessRun struct {
	oneShot bool
	cores   int
	seed    uint64
	maxOps  int
}

type accessRunOut struct {
	res     RunResult
	log     []string
	evServ  uint64
	retired uint64
}

func (c accessRun) run() accessRunOut {
	tr := &seqTracer{}
	sys := NewSystemWith(tr)
	fnCPU := tr.RegisterFunc("test::cpuTick", 100, 0)
	fnMem := tr.RegisterFunc("test::memAccess", 200, 0)
	fnResp := tr.RegisterFunc("test::resp", 50, 0)
	fnPoke := tr.RegisterFunc("test::poke", 30, 0)
	rng := splitmix(c.seed)
	var issued int
	var retired uint64
	post := func(name string, fn FuncID, d Tick, fire func()) {
		if c.oneShot {
			sys.OneShot(name, fn, d, fire)
			return
		}
		sys.ScheduleIn(NewEvent(name, fn, fire), d)
	}
	resp := func(id int) {
		sys.TraceCall(fnResp)
		sys.TraceData(uint64(sys.Now())<<8|uint64(id&0xff), 8, false)
		retired++
	}
	access := func(id int) {
		sys.TraceCall(fnMem)
		sys.TraceData(uint64(sys.Now())<<8|uint64(id&0xff), 64, true)
		h := splitmix(uint64(id) * 0x5851f42d4c957f2d)
		post("mem.resp", fnResp, 16000+Tick(1000*(h.next()%8)), func() { resp(id) })
	}
	pokes := make([]*Event, c.cores)
	for i := range pokes {
		core := i
		pokes[i] = NewEvent(fmt.Sprintf("cpu%d.poke", core), fnPoke, func() {
			retired++
			sys.TraceCall(fnPoke)
			sys.TraceData(uint64(core)<<32|uint64(sys.Now()), 4, true)
		})
	}
	for i := 0; i < c.cores; i++ {
		core := i
		tick := NewEventPrio(fmt.Sprintf("cpu%d.tick", core), fnCPU, PrioCPUTick, nil)
		tick.fire = func() {
			sys.TraceCall(fnCPU)
			sys.TraceData(uint64(sys.Now())<<8|uint64(issued&0xff), 8, false)
			if issued >= c.maxOps {
				return
			}
			issued++
			id := issued
			r := rng.next()
			// Delays are whole cycles, so same-tick collisions happen.
			post("mem.acc", fnMem, 1000*Tick(1+r%40), func() { access(id) })
			if c.cores > 1 && r%3 == 0 {
				sib := (core + 1 + int(r>>8)%(c.cores-1)) % c.cores
				sys.Reschedule(pokes[sib], sys.Now()+Tick(1000*(r>>16%3)))
			}
			sys.ScheduleIn(tick, 1000)
		}
		sys.Schedule(tick, Tick(1000*(1+core)))
	}
	res := sys.Run(MaxTick, 0)
	return accessRunOut{res: res, log: tr.log, evServ: sys.EventsServiced(), retired: retired}
}
