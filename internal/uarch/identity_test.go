package uarch_test

// Report identity per host class. The benchmark's workloads only ever
// build the Xeon, so a speed-up of the host structures could shift a
// statistic on a 12-way, 128-byte-line, DSB-less or LLC-less geometry
// unnoticed. This replays one deterministic hostmodel stream into each
// class, sink call by sink call and through ApplyBatch, requires equal
// Reports from the two routes and pins an FNV of the rendered Report per
// host, recorded before the cache layout was rebuilt.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/ring"
	"gem5prof/internal/uarch"
)

func TestReportIdentityPerHostClass(t *testing.T) {
	// Capture the head of the stream the way a pipelined session carries
	// it: hostmodel's own encoder into a ring, drained here.
	const records = 1 << 20
	rg := ring.New(8)
	enc := hostmodel.NewRingSink(rg)
	var head []ring.Batch
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for b := rg.Acquire(); b != nil; b = rg.Acquire() {
			if len(head)*ring.BatchRecords < records {
				head = append(head, *b)
			}
			rg.Release()
		}
	}()
	hc := hostmodel.DefaultConfig()
	cm := hostmodel.New(hc, enc)
	g, err := core.BuildGuest(core.GuestConfig{CPU: core.O3, Mode: core.SE,
		Workload: "water_nsquared", Scale: 40, Seed: 1}, cm)
	if err == nil {
		_, err = g.Run()
	}
	enc.Close()
	<-drained
	if err != nil {
		t.Fatal(err)
	}
	if n := len(head); n*ring.BatchRecords != records || head[n-1].Len() != ring.BatchRecords {
		t.Fatalf("captured %d batches, want %d full ones", n, records/ring.BatchRecords)
	}
	newMachine := func(cfg uarch.Config) *uarch.Machine {
		m := uarch.NewMachine(cfg)
		tb, te := cm.TextRange()
		m.MapText(tb, te)
		hb, he := cm.HeapRange()
		m.MapData(hb, he)
		m.MapData(hc.StackBase-(1<<20), hc.StackBase+(1<<12))
		return m
	}

	for _, tc := range []struct {
		cfg  uarch.Config
		want uint64
	}{
		{platform.IntelXeon(), 0xfd5d8d79869a167d},
		{platform.M1Pro(), 0x195744cd12b06b65},       // 12-way, 128 B lines, no DSB
		{platform.FireSimBase(), 0x327953c53e5c446d}, // no LLC
		{platform.Contend(platform.IntelXeon(), platform.Scenario{Procs: 4, SMT: true}), 0x479d420836a9a03d},
	} {
		direct := newMachine(tc.cfg)
		for i := range head {
			for _, rec := range head[i].Records() {
				switch rec.Op {
				case ring.OpFetch:
					direct.FetchBlock(rec.Addr, rec.A, rec.B)
				case ring.OpBranch:
					direct.Branch(rec.Addr, rec.Arg,
						rec.Flags&ring.FlagTaken != 0, rec.Flags&ring.FlagIndirect != 0)
				case ring.OpData:
					direct.Data(rec.Addr, rec.A, rec.Flags&ring.FlagWrite != 0)
				}
			}
		}
		batched := newMachine(tc.cfg)
		for i := range head {
			batched.ApplyBatch(&head[i])
		}
		if d, b := direct.Report(), batched.Report(); d != b {
			t.Errorf("%s: sink calls and ApplyBatch disagree:\n%v\n%v", tc.cfg.Name, d, b)
		}
		// The rendered text plus every field at full precision.
		h := fnv.New64a()
		fmt.Fprintf(h, "%s\n%+v", direct.Report().String(), direct.Report())
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: Report FNV = %#x, want %#x", tc.cfg.Name, got, tc.want)
		}
	}
}
