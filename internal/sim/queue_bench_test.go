package sim

import (
	"fmt"
	"testing"
)

// BenchmarkQueueDepth times one service-and-reschedule, in ns/op, on a queue
// that holds depth pending events throughout: the earliest event fires and
// goes back in at a delay of 1 to 97 guest cycles. Delays are whole cycles
// (multiples of Nanosecond, a 1 GHz clock), as the simulator's are, so the
// calendar queue's one-cycle buckets see the spread a guest gives them. The
// guests run at depths near 4 (DESIGN.md §27); 64 and 1024 show how each
// backend scales.
func BenchmarkQueueDepth(b *testing.B) {
	backends := []struct {
		name string
		mk   func() Queue
	}{
		{"heap", func() Queue { return NewHeapQueue() }},
		{"calendar", func() Queue { return NewCalendarQueue(1024, Nanosecond) }},
	}
	for _, be := range backends {
		for _, depth := range []int{4, 64, 1024} {
			b.Run(fmt.Sprintf("%s/%d", be.name, depth), func(b *testing.B) {
				q := be.mk()
				var fired *Event
				delay := func(i int) Tick { return Tick(1+(i*31)%97) * Nanosecond }
				for i := 0; i < depth; i++ {
					var e *Event
					e = NewEvent("e", 0, func() { fired = e })
					q.Schedule(e, q.Now()+delay(i))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q.ServiceOne()
					q.Schedule(fired, q.Now()+delay(i))
				}
			})
		}
	}
}
