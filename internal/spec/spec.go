// Package spec synthesizes the host-level instruction streams of the three
// SPEC CPU2017 reference benchmarks the paper runs bare-metal on the Xeon
// for comparison with gem5's profile: 525.x264_r (loopy, highest IPC),
// 531.deepsjeng_r (large footprint, LLC-missing), and 505.mcf_r (pointer
// chasing and mispredicting, lowest IPC).
//
// The generators feed the same uarch.Machine sink as the simulator's code
// model, so their Top-Down profiles are produced by the identical cycle
// model — exactly the comparison the paper draws.
package spec

import (
	"fmt"
	"sort"

	"gem5prof/internal/uarch"
)

// Profile parameterizes one synthetic host workload.
type Profile struct {
	Name string
	// CodeBytes is the static instruction footprint.
	CodeBytes uint64
	// LoopBytes is the size of the hot inner loop; hot fetches walk it
	// sequentially (so a loop that fits the DSB streams from it).
	LoopBytes uint64
	// HotFrac is the fraction of fetches served from the hot loop; the
	// rest walk the whole footprint.
	HotFrac float64
	// UopsPerBlock is the average decoded uops per 32-byte fetch block.
	UopsPerBlock uint32
	// BranchEvery emits one conditional branch per N blocks.
	BranchEvery int
	// BranchNoise is the fraction of branches with data-dependent
	// (unpredictable) direction.
	BranchNoise float64
	// IndirectEvery emits an indirect branch per N blocks (0 = none).
	IndirectEvery int
	// DataBytes is the data working-set size.
	DataBytes uint64
	// DataEvery emits one data access per N blocks.
	DataEvery int
	// DataRandom is the fraction of data accesses at random addresses
	// (the rest stream sequentially and prefetch well).
	DataRandom float64
	// WriteFrac is the store fraction of data accesses.
	WriteFrac float64
}

var profiles = map[string]Profile{
	// Loop-dominated video encoder: tiny hot loops, streaming data,
	// predictable branches → highest IPC in the suite.
	"525.x264_r": {
		Name: "525.x264_r", CodeBytes: 96 << 10, LoopBytes: 1280, HotFrac: 0.997,
		UopsPerBlock: 10, BranchEvery: 5, BranchNoise: 0.02,
		DataBytes: 6 << 20, DataEvery: 4, DataRandom: 0.02, WriteFrac: 0.3,
	},
	// Chess search: moderate code, big tables missing the LLC.
	"531.deepsjeng_r": {
		Name: "531.deepsjeng_r", CodeBytes: 420 << 10, LoopBytes: 1 << 10, HotFrac: 0.95,
		UopsPerBlock: 8, BranchEvery: 4, BranchNoise: 0.10,
		IndirectEvery: 96,
		DataBytes:     192 << 20, DataEvery: 3, DataRandom: 0.60, WriteFrac: 0.2,
	},
	// Vehicle scheduling: pointer chasing over a huge graph plus
	// hard-to-predict branches → lowest IPC, heavily back-end bound.
	"505.mcf_r": {
		Name: "505.mcf_r", CodeBytes: 48 << 10, LoopBytes: 1024, HotFrac: 0.95,
		UopsPerBlock: 7, BranchEvery: 3, BranchNoise: 0.25,
		DataBytes: 512 << 20, DataEvery: 4, DataRandom: 0.90, WriteFrac: 0.15,
	},
}

// Names returns the available benchmark names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	//lint:deterministic keys are sorted before use
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName returns the profile for one benchmark.
func ByName(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("spec: unknown benchmark %q", name)
	}
	return p, nil
}

// Run replays blocks fetch blocks of the profile into the machine and
// returns what its first lane's units counted. The stream is deterministic.
func (p Profile) Run(m *uarch.Machine, blocks int) uarch.Counts {
	const (
		textBase = uint64(0x40_0000)
		dataBase = uint64(0x7f00_0000_0000)
	)
	m.MapText(textBase, textBase+p.CodeBytes)
	m.MapData(dataBase, dataBase+p.DataBytes)

	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 11
	}
	loopPC := uint64(0)
	coldPC := uint64(0)
	seqData := uint64(0)
	for i := 0; i < blocks; i++ {
		r := next()
		var pc uint64
		if float64(r%1000)/1000 < p.HotFrac {
			// Hot inner loop: sequential walk, wrapping.
			loopPC = (loopPC + 32) % p.LoopBytes
			pc = textBase + loopPC
		} else {
			coldPC = (coldPC + 32 + r%480&^31) % p.CodeBytes
			pc = textBase + coldPC&^31
		}
		m.FetchBlock(pc, 32, p.UopsPerBlock)

		if p.BranchEvery > 0 && i%p.BranchEvery == 0 {
			taken := r&1 == 1
			if float64(next()%1000)/1000 >= p.BranchNoise {
				// Predictable: strongly biased taken per-pc.
				taken = pc>>5&1 == 0
			}
			m.Branch(pc+30, pc+64, taken, false)
		}
		if p.IndirectEvery > 0 && i%p.IndirectEvery == 0 {
			m.Branch(pc+28, textBase+next()%p.CodeBytes, true, true)
		}
		if p.DataEvery > 0 && i%p.DataEvery == 0 {
			var addr uint64
			if float64(next()%1000)/1000 < p.DataRandom {
				addr = dataBase + next()%p.DataBytes
			} else {
				seqData = (seqData + 64) % p.DataBytes
				addr = dataBase + seqData
			}
			write := float64(next()%1000)/1000 < p.WriteFrac
			m.Data(addr, 8, write)
		}
	}
	return m.Counts(0)
}
