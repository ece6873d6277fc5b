package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func backends() map[string]func() Queue {
	return map[string]func() Queue{
		"heap":      func() Queue { return NewHeapQueue() },
		"naiveHeap": func() Queue { return newNaiveHeap() },
		"calendar":  func() Queue { return NewCalendarQueue(16, 100) },
	}
}

func TestQueueFiresInOrder(t *testing.T) {
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			var got []Tick
			ticks := []Tick{500, 10, 10, 9999, 0, 123, 77, 500}
			for i, when := range ticks {
				w := when
				e := NewEvent("e", 0, func() { got = append(got, w) })
				_ = i
				q.Schedule(e, w)
			}
			for q.ServiceOne() {
			}
			if len(got) != len(ticks) {
				t.Fatalf("fired %d events, want %d", len(got), len(ticks))
			}
			for i := 1; i < len(got); i++ {
				if got[i] < got[i-1] {
					t.Fatalf("out of order at %d: %v", i, got)
				}
			}
			if q.Now() != 9999 {
				t.Errorf("Now() = %d, want 9999", q.Now())
			}
		})
	}
}

func TestQueueSameTickPriorityAndStability(t *testing.T) {
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			var got []string
			add := func(id string, prio int) {
				e := NewEventPrio(id, 0, prio, func() { got = append(got, id) })
				q.Schedule(e, 100)
			}
			add("b1", PrioDefault)
			add("a", PrioCPUTick) // lower priority value fires first
			add("b2", PrioDefault)
			add("z", PrioSerialize)
			for q.ServiceOne() {
			}
			want := []string{"a", "b1", "b2", "z"}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("got %v, want %v", got, want)
				}
			}
		})
	}
}

func TestQueueDeschedule(t *testing.T) {
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			fired := 0
			e1 := NewEvent("e1", 0, func() { fired++ })
			e2 := NewEvent("e2", 0, func() { fired += 10 })
			q.Schedule(e1, 50)
			q.Schedule(e2, 60)
			q.Deschedule(e1)
			if e1.Scheduled() {
				t.Fatal("e1 still scheduled after Deschedule")
			}
			for q.ServiceOne() {
			}
			if fired != 10 {
				t.Fatalf("fired = %d, want 10", fired)
			}
		})
	}
}

func TestQueueReschedule(t *testing.T) {
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			var order []string
			e1 := NewEvent("e1", 0, func() { order = append(order, "e1") })
			e2 := NewEvent("e2", 0, func() { order = append(order, "e2") })
			q.Schedule(e1, 50)
			q.Schedule(e2, 60)
			q.Reschedule(e1, 70) // move e1 after e2
			for q.ServiceOne() {
			}
			if order[0] != "e2" || order[1] != "e1" {
				t.Fatalf("order = %v", order)
			}
		})
	}
}

func TestQueueScheduleDuringFire(t *testing.T) {
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			var got []Tick
			var chain func()
			e := NewEvent("chain", 0, nil)
			chain = func() {
				got = append(got, q.Now())
				if q.Now() < 500 {
					q.Schedule(e, q.Now()+100)
				}
			}
			e.fire = chain
			q.Schedule(e, 100)
			for q.ServiceOne() {
			}
			if len(got) != 5 || got[4] != 500 {
				t.Fatalf("chain = %v", got)
			}
		})
	}
}

func TestQueuePanics(t *testing.T) {
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			e := NewEvent("e", 0, func() {})
			q.Schedule(e, 10)
			mustPanic(t, "double schedule", func() { q.Schedule(e, 20) })
			q.Deschedule(e)
			mustPanic(t, "double deschedule", func() { q.Deschedule(e) })
			other := NewEvent("o", 0, func() {})
			q.Schedule(other, 100)
			for q.ServiceOne() {
			}
			mustPanic(t, "schedule in past", func() { q.Schedule(e, 10) })
			mustPanic(t, "NextTick empty", func() { q.NextTick() })
		})
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestQueueEquivalence property-checks that the deque and the calendar
// queue service any schedule in exactly the order of naiveHeap, the binary
// heap the deque replaced.
func TestQueueEquivalence(t *testing.T) {
	run := func(q Queue, ticks []uint16, prios []int8) []int {
		var order []int
		for i := range ticks {
			id := i
			p := PrioDefault
			if i < len(prios) {
				p = int(prios[i])
			}
			q.Schedule(NewEventPrio("e", 0, p, func() { order = append(order, id) }), Tick(ticks[i]))
		}
		for q.ServiceOne() {
		}
		return order
	}
	f := func(ticks []uint16, prios []int8) bool {
		h := run(newNaiveHeap(), ticks, prios)
		return slices.Equal(run(NewHeapQueue(), ticks, prios), h) &&
			slices.Equal(run(NewCalendarQueue(8, 37), ticks, prios), h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueEquivalenceDynamic was promoted to the native fuzz target
// FuzzQueueEquivalence (queue_fuzz_test.go); the seed corpus there covers the
// random mixed schedule/deschedule/reschedule streams this test used to
// drive, plus the window-slide regressions below.

// TestCalendarScheduleAfterWindowJump is a regression test: NextTick on a
// queue whose ring is empty jumps the window (q.base) to the earliest
// overflow event without firing anything, so q.base can land far past
// q.Now(). Scheduling at Now() immediately afterwards is legal, but the
// bucket index (when-base)/width underflowed and filed the event into a
// garbage bucket, firing it out of order.
func TestCalendarScheduleAfterWindowJump(t *testing.T) {
	q := NewCalendarQueue(4, 10) // horizon of 40 ticks
	var got []Tick
	add := func(when Tick) {
		q.Schedule(NewEvent("e", 0, func() { got = append(got, when) }), when)
	}
	add(1_000_000) // far future: overflow area
	if nt := q.NextTick(); nt != 1_000_000 {
		t.Fatalf("NextTick = %d, want 1000000", nt)
	}
	// The jump moved the window to t=1M while Now() is still 0.
	if q.Now() != 0 {
		t.Fatalf("Now = %d, want 0", q.Now())
	}
	add(q.Now()) // schedule at Now() right after the jump
	add(5)
	if err := q.checkInvariant(); err != nil {
		t.Fatal(err)
	}
	for q.ServiceOne() {
		if err := q.checkInvariant(); err != nil {
			t.Fatal(err)
		}
	}
	want := []Tick{0, 5, 1_000_000}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestCalendarScheduleAfterWindowSlide is the sliding variant of the jump
// regression: NextTick slides the window bucket-by-bucket past Now() to reach
// a ring event, then a schedule below the new q.base must still fire first.
func TestCalendarScheduleAfterWindowSlide(t *testing.T) {
	q := NewCalendarQueue(4, 10)
	var got []Tick
	add := func(when Tick) {
		q.Schedule(NewEvent("e", 0, func() { got = append(got, when) }), when)
	}
	add(35) // three buckets ahead: NextTick slides base to 30
	if nt := q.NextTick(); nt != 35 {
		t.Fatalf("NextTick = %d, want 35", nt)
	}
	add(2) // below the slid window start, above Now()
	if err := q.checkInvariant(); err != nil {
		t.Fatal(err)
	}
	for q.ServiceOne() {
		if err := q.checkInvariant(); err != nil {
			t.Fatal(err)
		}
	}
	want := []Tick{2, 35}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

func TestCalendarOverflowAndJump(t *testing.T) {
	q := NewCalendarQueue(4, 10) // horizon of 40 ticks
	var got []Tick
	add := func(when Tick) {
		q.Schedule(NewEvent("e", 0, func() { got = append(got, when) }), when)
	}
	add(1_000_000) // far future, lands in overflow
	add(5)
	add(39)
	add(4000)
	for q.ServiceOne() {
	}
	want := []Tick{5, 39, 4000, 1_000_000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if q.Now() != 1_000_000 {
		t.Errorf("Now = %d", q.Now())
	}
}
