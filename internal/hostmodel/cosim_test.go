package hostmodel_test

import (
	"runtime"
	"strings"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/sim"
)

// countSink counts the records a code model emits and does nothing else.
type countSink struct{ n uint64 }

func (s *countSink) FetchBlock(uint64, uint32, uint32) { s.n++ }
func (s *countSink) Branch(uint64, uint64, bool, bool) { s.n++ }
func (s *countSink) Data(uint64, uint32, bool)         { s.n++ }

// cosimGuest is the guest of the cosim_serial benchmark workload.
var cosimGuest = core.GuestConfig{CPU: core.O3, Mode: core.SE, Workload: "water_nsquared", Scale: 40, Seed: 42}

// BenchmarkCodeModel is the producer layer, the code model, with no host
// model behind it: the cosim_serial session's guest (O3 on water_nsquared
// at scale 40) run to its end and traced into a sink that only counts. The
// guest is built, and its binary laid out, outside the timer. It reports
// ns/record, which BenchmarkRecordReplay (internal/uarch) reports for the
// consumer of the same stream.
func BenchmarkCodeModel(b *testing.B) {
	var records uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sink := &countSink{}
		g, err := core.BuildGuest(cosimGuest, hostmodel.New(hostmodel.DefaultConfig(), sink))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := g.Run(); err != nil {
			b.Fatal(err)
		}
		records += sink.n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}

// TestLayoutHeldBytes holds what the cosim_serial guest's published binary
// keeps, the function headers and their steps, as TestSessionRebuildAllocs
// (internal/core) holds what its session allocates. With 120-byte headers
// and three traces of 40-byte steps, each a slice of its own, the 5058
// functions kept 1 683 200 bytes; with 56-byte headers and one array of
// 16-byte steps a function, 714 944 bytes (go1.24 on linux/amd64). The bound
// is 2% over that. Capacities follow the runtime's size classes, so another
// Go release only logs its figure.
func TestLayoutHeldBytes(t *testing.T) {
	cm := hostmodel.New(hostmodel.DefaultConfig(), &countSink{})
	if _, err := core.BuildGuest(cosimGuest, cm); err != nil {
		t.Fatal(err)
	}
	got := cm.Publish().HeldBytes()
	t.Logf("%d functions hold %d bytes (%s)", cm.NumFuncs(), got, runtime.Version())
	const pinned = 714_944
	if strings.HasPrefix(runtime.Version(), "go1.24") && float64(got) > 1.02*pinned {
		t.Errorf("the published binary holds %d bytes, want at most %.0f (2%% over %d)", got, 1.02*pinned, pinned)
	}
}

// registration is one RegisterFunc call as a guest build made it.
type registration struct {
	name      string
	codeBytes int
	flags     sim.FuncFlags
}

// regRecorder is a code model that also keeps the RegisterFunc calls made of
// it, in order.
type regRecorder struct {
	*hostmodel.CodeModel
	regs []registration
}

func (r *regRecorder) RegisterFunc(name string, codeBytes int, flags sim.FuncFlags) sim.FuncID {
	r.regs = append(r.regs, registration{name, codeBytes, flags})
	return r.CodeModel.RegisterFunc(name, codeBytes, flags)
}

// TestColdLayoutAllocs holds what laying out the cosim_serial guest's binary
// allocates from nothing: its 389 registrations made again of a new code
// model, and Publish. While the header array doubled as functions were
// placed and Publish trimmed it with a copy, the build allocated 1 505 576
// bytes for the 711 472 the binary keeps (2.1x); with the headers placed in
// fixed chunks and copied once into an array of the binary's size, and helper
// names built without fmt, 1 165 304 (1.64x; go1.24 on linux/amd64). The
// rest is the steps, kept as built, and the registration log. The bound is 2%
// over that; another Go release only logs its figure.
func TestColdLayoutAllocs(t *testing.T) {
	rec := &regRecorder{CodeModel: hostmodel.New(hostmodel.DefaultConfig(), &countSink{})}
	if _, err := core.BuildGuest(cosimGuest, rec); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cm := hostmodel.New(hostmodel.DefaultConfig(), &countSink{})
	for _, r := range rec.regs {
		cm.RegisterFunc(r.name, r.codeBytes, r.flags)
	}
	l := cm.Publish()
	runtime.ReadMemStats(&after)
	alloc, held := after.TotalAlloc-before.TotalAlloc, l.HeldBytes()
	t.Logf("%d registrations, %d functions: %d bytes allocated for %d held, %.2fx (%s)",
		len(rec.regs), cm.NumFuncs(), alloc, held, float64(alloc)/float64(held), runtime.Version())
	const pinned = 1_165_304
	if strings.HasPrefix(runtime.Version(), "go1.24") && float64(alloc) > 1.02*pinned {
		t.Errorf("a cold layout allocated %d bytes, want at most %.0f (2%% over %d)", alloc, 1.02*pinned, pinned)
	}
}
