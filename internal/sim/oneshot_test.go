package sim

import (
	"reflect"
	"testing"
)

func queueBackends() map[string]func() Queue {
	return map[string]func() Queue{
		"heap":      func() Queue { return NewHeapQueue() },
		"naiveHeap": func() Queue { return newNaiveHeap() },
		"calendar":  func() Queue { return NewCalendarQueue(256, 1000) },
	}
}

// TestOneShotRecycle pins the lifetime rule of one-shot events: the queue
// that fires one takes it back only after its callback returned, so recycling
// is invisible to every caller, serial and sharded.
func TestOneShotRecycle(t *testing.T) {
	for name, newQ := range queueBackends() {
		newQ := newQ
		// The cache hit response -> startFetch -> SendTiming chain: a
		// one-shot's callback posts the next one-shot at the same tick. The
		// new one must not be the event that is still firing, and however
		// long the chain runs it only ever needs the two.
		t.Run(name+"/same-tick chain", func(t *testing.T) {
			sys := NewSystemWith(newQ(), NewNopTracer())
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
				sys.OneShot("link", 0, DomainCPU, 0, link)
				if q.Peek() == firing {
					t.Fatalf("fire %d: the new one-shot is the event still firing", fired)
				}
			}
			sys.OneShot("link", 0, DomainCPU, 0, link)
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
		t.Run(name+"/high-water mark", func(t *testing.T) {
			sys := NewSystemWith(newQ(), NewNopTracer())
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
						sys.OneShot("chain", 0, DomainCPU, delay, again)
					}
				}
				sys.OneShot("chain", 0, DomainCPU, delay, again)
			}
			seen := map[*Event]bool{}
			for !q.Empty() {
				seen[q.Peek()] = true
				q.ServiceOne()
			}
			if fired != k*rounds || len(seen) != k+1 {
				t.Fatalf("%d fires used %d distinct events, want %d fires on %d", fired, len(seen), k*rounds, k+1)
			}
			if free := len(q.pool().free); free != k+1 {
				t.Fatalf("%d events on the free list after the drain, want %d", free, k+1)
			}
		})

		// Across the mailbox: events drawn from the coordinator's list fire on
		// the memory shard's worker and retire there; the sender's list never
		// sees them again.
		t.Run(name+"/cross-shard retire", func(t *testing.T) {
			sys := NewSystemWith(newQ(), NewNopTracer())
			sys.EnableSharding(ShardConfig{Quantum: QuantumFor(testQuantum), NewQueue: newQ})
			msys := sys.DomainView(DomainMem)
			const m = 5
			fired := 0
			sys.Schedule(NewEvent("start", 0, func() {
				for i := 0; i < m; i++ {
					sys.OneShot("to-mem", 0, DomainMem, testQuantum+Tick(i), func() { fired++ })
				}
			}), 1000)
			sys.Run(MaxTick, 0)
			if fired != m {
				t.Fatalf("%d of %d cross-shard one-shots fired", fired, m)
			}
			if got := len(msys.Queue().pool().free); got != m {
				t.Errorf("receiving shard's free list holds %d events, want %d", got, m)
			}
			if got := len(sys.Queue().pool().free); got != 0 {
				t.Errorf("sending shard's free list holds %d events, want 0", got)
			}
		})
	}

	// Invisible: the two-domain workload issuing every access and response
	// through OneShot produces the trace, the event count and the result of
	// the same workload allocating a fresh event each time, serial and
	// sharded, on both queues.
	t.Run("same trace as fresh events", func(t *testing.T) {
		c := shardRun{seed: 3, maxOps: 400}
		want := c.run()
		c.oneShot = true
		for _, c.sharded = range []bool{false, true} {
			for _, c.calendar = range []bool{false, true} {
				if got := c.run(); !reflect.DeepEqual(got, want) {
					t.Errorf("sharded=%v calendar=%v: one-shot run differs from the fresh-event serial run (%d vs %d records, result %+v vs %+v)",
						c.sharded, c.calendar, len(got.log), len(want.log), got.res, want.res)
				}
			}
		}
	})
}
