package sim

import (
	"encoding/json"
	"strings"
	"testing"
)

type tickerObj struct {
	name  string
	sys   *System
	ev    *Event
	count int
	limit int
}

func newTicker(sys *System, name string, limit int) *tickerObj {
	o := &tickerObj{name: name, sys: sys, limit: limit}
	o.ev = NewEvent(name+".tick", 0, o.tick)
	sys.Register(o)
	return o
}

func (o *tickerObj) Name() string { return o.name }

func (o *tickerObj) Startup() { o.sys.Schedule(o.ev, 0) }

func (o *tickerObj) tick() {
	o.count++
	if o.count < o.limit {
		o.sys.ScheduleIn(o.ev, 1000)
	}
}

func TestSystemRunToEmpty(t *testing.T) {
	sys := NewSystem(1)
	tk := newTicker(sys, "ticker", 10)
	res := sys.Run(MaxTick, 0)
	if res.Status != ExitQueueEmpty {
		t.Fatalf("status = %v", res.Status)
	}
	if tk.count != 10 {
		t.Fatalf("count = %d, want 10", tk.count)
	}
	if res.Now != 9000 {
		t.Fatalf("Now = %d, want 9000", res.Now)
	}
	if res.Events != 10 {
		t.Fatalf("events = %d, want 10", res.Events)
	}
}

func TestSystemTickLimit(t *testing.T) {
	sys := NewSystem(1)
	tk := newTicker(sys, "ticker", 1000)
	res := sys.Run(4500, 0)
	if res.Status != ExitLimit {
		t.Fatalf("status = %v", res.Status)
	}
	if tk.count != 5 { // events at 0,1000,2000,3000,4000
		t.Fatalf("count = %d, want 5", tk.count)
	}
	// The pending event must remain schedulable; resuming continues the run.
	res = sys.Run(9500, 0)
	if tk.count != 10 {
		t.Fatalf("after resume count = %d, want 10", tk.count)
	}
}

func TestSystemEventLimit(t *testing.T) {
	sys := NewSystem(1)
	newTicker(sys, "ticker", 1000)
	res := sys.Run(MaxTick, 7)
	if res.Status != ExitEventLimit || res.Events != 7 {
		t.Fatalf("status = %v events = %d", res.Status, res.Events)
	}
}

func TestSystemRequestExit(t *testing.T) {
	sys := NewSystem(1)
	var nextAt Tick
	sys.Schedule(NewEvent("warm", 0, func() {}), 50)
	e := NewEvent("boom", 0, func() { sys.RequestExit("m5 exit", 42) })
	sys.Schedule(e, 123)
	sys.Schedule(NewEvent("next", 0, func() { nextAt = sys.Now() }), 200)
	res := sys.Run(MaxTick, 0)
	if res.Status != ExitRequested || res.ExitCode != 42 || res.ExitReason != "m5 exit" {
		t.Fatalf("res = %+v", res)
	}
	if res.Now != 123 {
		t.Fatalf("Now = %d", res.Now)
	}
	// The exiting event fired, so it counts.
	if res.Events != 2 || sys.EventsServiced() != 2 {
		t.Fatalf("Events = %d, EventsServiced = %d, want 2 and 2", res.Events, sys.EventsServiced())
	}
	// A second Run resumes with the next pending event, at its tick.
	res = sys.Run(MaxTick, 0)
	if res.Status != ExitQueueEmpty || res.Events != 1 || res.Now != 200 || nextAt != 200 {
		t.Fatalf("second run: res = %+v, next fired at %d", res, nextAt)
	}
	if sys.EventsServiced() != 3 {
		t.Fatalf("EventsServiced = %d after the second run, want 3", sys.EventsServiced())
	}
}

func TestSystemDuplicateObjectPanics(t *testing.T) {
	sys := NewSystem(1)
	newTicker(sys, "x", 1)
	mustPanic(t, "duplicate object", func() { newTicker(sys, "x", 1) })
}

func TestSystemObjectLookup(t *testing.T) {
	sys := NewSystem(1)
	tk := newTicker(sys, "cpu0", 1)
	if sys.Object("cpu0") != SimObject(tk) {
		t.Fatal("lookup failed")
	}
	if sys.Object("nope") != nil {
		t.Fatal("phantom object")
	}
	if len(sys.Objects()) != 1 {
		t.Fatal("Objects() wrong length")
	}
}

func TestSystemDeterminism(t *testing.T) {
	runOnce := func() (Tick, uint64) {
		sys := NewSystem(42)
		for i := 0; i < 5; i++ {
			tk := newTicker(sys, "t"+string(rune('a'+i)), 20+i)
			_ = tk
		}
		res := sys.Run(MaxTick, 0)
		return res.Now, res.Events
	}
	n1, e1 := runOnce()
	n2, e2 := runOnce()
	if n1 != n2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", n1, e1, n2, e2)
	}
}

func TestStatsRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cpu.numInsts", "instructions committed")
	s := r.Scalar("cpu.ipc", "instructions per cycle")
	f := r.Formula("cpu.double", "twice the counter", func() float64 { return 2 * c.Value() })
	c.Addn(5)
	c.Inc()
	s.Set(1.5)
	s.Add(0.25)
	if c.Count() != 6 {
		t.Fatalf("counter = %d", c.Count())
	}
	if got := r.Get("cpu.ipc"); got != 1.75 {
		t.Fatalf("scalar = %v", got)
	}
	if f.Value() != 12 {
		t.Fatalf("formula = %v", f.Value())
	}
	if r.Lookup("nope") != nil {
		t.Fatal("phantom stat")
	}
	mustPanic(t, "unknown stat", func() { r.Get("nope") })
	mustPanic(t, "duplicate stat", func() { r.Counter("cpu.numInsts", "") })
	dump := r.Dump()
	for _, want := range []string{"cpu.numInsts", "cpu.ipc", "Begin Simulation"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "cpu.numInsts" {
		t.Fatalf("names = %v", names)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{10, 20, 30})
	for _, v := range []float64{5, 15, 25, 35, 100, 10} {
		h.Observe(v)
	}
	if h.Samples() != 6 {
		t.Fatalf("samples = %d", h.Samples())
	}
	if h.Min() != 5 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	wantBuckets := []uint64{2, 1, 1, 2} // <=10:{5,10} <=20:{15} <=30:{25} over:{35,100}
	for i, w := range wantBuckets {
		if h.Bucket(i) != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.Bucket(i), w)
		}
	}
	if h.Value() != (5+15+25+35+100+10)/6.0 {
		t.Fatalf("mean = %v", h.Value())
	}
	mustPanic(t, "unsorted bounds", func() { r.Histogram("bad", "", []float64{3, 1}) })
}

func TestNopTracer(t *testing.T) {
	tr := NewNopTracer()
	a := tr.RegisterFunc("f", 100, 0)
	b := tr.RegisterFunc("g", 100, FuncHot)
	if a == b || a == 0 {
		t.Fatalf("ids a=%d b=%d", a, b)
	}
	p := tr.AllocData("x", 100)
	q := tr.AllocData("y", 100)
	if q <= p {
		t.Fatal("alloc not advancing")
	}
	if q%64 != 0 || p%64 != 0 {
		t.Fatal("alloc not aligned")
	}
	tr.Call(a)
	tr.Data(p, 8, true)
}

func TestEventAccessors(t *testing.T) {
	e := NewEventPrio("ev", 3, PrioCPUTick, func() {})
	if e.Name() != "ev" || e.Priority() != PrioCPUTick || e.Scheduled() {
		t.Fatalf("accessors wrong: %v %v %v", e.Name(), e.Priority(), e.Scheduled())
	}
	if !strings.Contains(e.String(), "unscheduled") {
		t.Fatalf("String = %q", e.String())
	}
	q := NewHeapQueue()
	q.Schedule(e, 77)
	if !e.Scheduled() || e.When() != 77 {
		t.Fatal("scheduled state wrong")
	}
	if !strings.Contains(e.String(), "77") {
		t.Fatalf("String = %q", e.String())
	}
	if q.NextTick() != 77 {
		t.Fatal("NextTick wrong")
	}
}

func TestExitStatusString(t *testing.T) {
	cases := map[ExitStatus]string{
		ExitQueueEmpty: "queue empty",
		ExitLimit:      "tick limit",
		ExitEventLimit: "event limit",
		ExitRequested:  "exit requested",
		ExitStatus(99): "ExitStatus(99)",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(st), st.String(), want)
		}
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b", "").Addn(3)
	r.Scalar("c.d", "").Set(1.5)
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["a.b"] != 3 || m["c.d"] != 1.5 {
		t.Fatalf("json = %v", m)
	}
}
