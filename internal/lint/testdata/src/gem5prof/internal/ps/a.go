// Fixtures for the pastsched analyzer: Schedule/Reschedule tick
// arguments that are or are not provably current-tick-derived.
package ps

import "gem5prof/internal/sim"

type waiter struct {
	ev   *sim.Event
	when sim.Tick
}

// Good schedules at Now plus a latency.
func Good(sys *sim.System, e *sim.Event) {
	sys.Schedule(e, sys.Now()+5)
}

// GoodParam forwards the obligation to its caller.
func GoodParam(sys *sim.System, e *sim.Event, when sim.Tick) {
	sys.Schedule(e, when)
}

// GoodLocal derives a local from Now.
func GoodLocal(sys *sim.System, e *sim.Event) {
	t := sys.Now() + 10
	sys.Schedule(e, t)
}

// GoodGuard establishes when >= Now with the deschedule-or-fire guard.
func GoodGuard(sys *sim.System, e *sim.Event, w *waiter) {
	when := w.when
	if when < sys.Now() {
		return
	}
	sys.Schedule(e, when)
}

// Startup may schedule absolute ticks: sim time is still 0.
func (w *waiter) Startup(sys *sim.System) {
	sys.Schedule(w.ev, 0)
}

// BadLiteral schedules an absolute tick mid-run.
func BadLiteral(sys *sim.System, e *sim.Event) {
	sys.Schedule(e, 100) // want `not provably derived from the current tick`
}

// BadSub subtracts from Now: can run backwards.
func BadSub(sys *sim.System, e *sim.Event) {
	sys.Schedule(e, sys.Now()-1) // want `not provably derived from the current tick`
}

// BadField reschedules at an unguarded struct field.
func BadField(sys *sim.System, e *sim.Event, w *waiter) {
	sys.Reschedule(e, w.when) // want `not provably derived from the current tick`
}

// GoodDelay passes latencies, and a difference of ticks, as delays.
func GoodDelay(sys *sim.System, e *sim.Event, w *waiter, lat sim.Tick) {
	sys.ScheduleIn(e, lat)
	sys.OneShot("resp", 0, lat+5, func() {})
	sys.OneShot("wake", 0, w.when-sys.Now(), func() {})
}

// BadDelay passes an absolute tick where the delay belongs: the event
// would land at twice the current time.
func BadDelay(sys *sim.System, e *sim.Event, lat sim.Tick) {
	sys.ScheduleIn(e, sys.Now()+lat) // want `ScheduleIn delay argument is an absolute tick`
	when := sys.Now() + lat
	sys.OneShot("resp", 0, when, func() {}) // want `OneShot delay argument is an absolute tick`
}

// Allowed waives an absolute tick with an annotation.
func Allowed(sys *sim.System, e *sim.Event) {
	//lint:allow pastsched checkpoint restore replays a recorded absolute tick
	sys.Schedule(e, 100)
}
