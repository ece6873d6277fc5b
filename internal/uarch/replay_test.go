package uarch_test

import (
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/spec"
	"gem5prof/internal/uarch"
)

// replayRecords is how many records of the session's stream
// BenchmarkRecordReplay keeps: about a ninth of the whole.
const replayRecords = 1 << 20

// Record kinds, one per hostmodel.Sink method.
const (
	recFetch = iota
	recBranch
	recData
)

// record is one hostmodel.Sink call: addr is the fetch or data address or
// the branch's pc; target a branch's target; n a fetch's bytes or a data
// access's size, uops a fetch's uops; flag a branch's taken or a data
// access's write bit, indirect a branch's.
type record struct {
	kind           uint8
	flag, indirect bool
	n, uops        uint32
	addr, target   uint64
}

// recorder is a hostmodel.Sink that keeps the first replayRecords calls.
type recorder struct{ recs []record }

func (r *recorder) keep(rec record) {
	if len(r.recs) < replayRecords {
		r.recs = append(r.recs, rec)
	}
}

func (r *recorder) FetchBlock(addr uint64, bytes, uops uint32) {
	r.keep(record{kind: recFetch, addr: addr, n: bytes, uops: uops})
}

func (r *recorder) Branch(pc, target uint64, taken, indirect bool) {
	r.keep(record{kind: recBranch, addr: pc, target: target, flag: taken, indirect: indirect})
}

func (r *recorder) Data(addr uint64, size uint32, write bool) {
	r.keep(record{kind: recData, addr: addr, n: size, flag: write})
}

// replay applies recs to m in order.
func replay(m *uarch.Machine, recs []record) {
	for i := range recs {
		r := &recs[i]
		switch r.kind {
		case recFetch:
			m.FetchBlock(r.addr, r.n, r.uops)
		case recBranch:
			m.Branch(r.addr, r.target, r.flag, r.indirect)
		default:
			m.Data(r.addr, r.n, r.flag)
		}
	}
}

// BenchmarkRecordReplay is the record path alone, on a machine drawn from
// reset units as a session draws one from core's unit store, so that no
// iteration pays for building or first touching its structures: the head of
// the stream of an O3 water_nsquared@40 session on the Xeon, replayed with no
// producer beside it, all of it and each record kind on its own (ns/record);
// and spec, the quick Top-Down set's replay of 505.mcf_r, the one of that set
// that reaches the LLC most (ns/block).
func BenchmarkRecordReplay(b *testing.B) {
	host := platform.IntelXeon()
	hc := hostmodel.DefaultConfig()
	rec := &recorder{recs: make([]record, 0, replayRecords)}
	cm := hostmodel.New(hc, rec)
	g, err := core.BuildGuest(core.GuestConfig{CPU: core.O3, Mode: core.SE, Workload: "water_nsquared", Scale: 40}, cm)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		b.Fatal(err)
	}
	tb, te := cm.TextRange()
	hb, he := cm.HeapRange()
	keeper := uarch.Keeper{}
	uarch.NewMachine(host).Release(keeper.Put)
	// machine draws a machine from the keeper; the caller releases it.
	machine := func(mapped bool) *uarch.Machine {
		m := uarch.Assemble(keeper.Take, host)
		if mapped {
			m.MapText(tb, te)
			m.MapData(hb, he)
			m.MapData(hc.StackBase-(1<<20), hc.StackBase+(1<<12))
		}
		return m
	}

	var byKind [3][]record
	for _, r := range rec.recs {
		byKind[r.kind] = append(byKind[r.kind], r)
	}
	for _, sub := range []struct {
		name string
		recs []record
	}{
		{"all", rec.recs},
		{"fetch", byKind[recFetch]},
		{"branch", byKind[recBranch]},
		{"data", byKind[recData]},
	} {
		b.Run(sub.name, func(b *testing.B) {
			if len(sub.recs) == 0 {
				b.Fatal("no records of this kind")
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := machine(true)
				b.StartTimer()
				replay(m, sub.recs)
				b.StopTimer()
				m.Release(keeper.Put)
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sub.recs)), "ns/record")
		})
	}

	b.Run("spec", func(b *testing.B) {
		p, err := spec.ByName("505.mcf_r")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := machine(false)
			b.StartTimer()
			p.Run(m, mcfBlocks)
			b.StopTimer()
			m.Release(keeper.Put)
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mcfBlocks), "ns/block")
	})
}
