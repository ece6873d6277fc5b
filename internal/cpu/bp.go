package cpu

import (
	"gem5prof/internal/isa"
	"gem5prof/internal/sim"
)

// Prediction is one branch predictor decision.
type Prediction struct {
	Taken  bool
	Target uint32
}

// counter2 is a 2-bit saturating counter.
type counter2 uint8

func (c counter2) taken() bool { return c >= 2 }

func (c counter2) inc() counter2 {
	if c < 3 {
		return c + 1
	}
	return c
}

func (c counter2) dec() counter2 {
	if c > 0 {
		return c - 1
	}
	return c
}

type btbEntry struct {
	tag    uint32
	target uint32
	valid  bool
}

// TournamentBP is a gem5-style tournament predictor: a local 2-bit table, a
// global-history table, a choice table, a branch target buffer, and a
// return-address stack.
type TournamentBP struct {
	local  []counter2
	global []counter2
	choice []counter2
	ghr    uint32
	btb    []btbEntry
	ras    []uint32

	lookups     *sim.Counter
	mispredicts *sim.Counter
	btbMisses   *sim.Counter
}

// The tournament predictor's geometry, the paper's FireSim configuration
// (TournamentBP with a 4096-entry BTB). The table sizes are powers of two.
const (
	bpLocalEntries  = 2048
	bpGlobalEntries = 8192
	bpBTBEntries    = 4096
	bpRASDepth      = 16
)

// NewTournamentBP builds a tournament predictor, registering its statistics
// under prefix.
func NewTournamentBP(st *sim.Registry, prefix string) *TournamentBP {
	b := &TournamentBP{
		local:  make([]counter2, bpLocalEntries),
		global: make([]counter2, bpGlobalEntries),
		choice: make([]counter2, bpGlobalEntries),
		btb:    make([]btbEntry, bpBTBEntries),
		ras:    make([]uint32, 0, bpRASDepth),
	}
	// Weakly taken initial state converges faster on loopy code.
	for i := range b.local {
		b.local[i] = 2
	}
	b.lookups = st.Counter(prefix+".bpLookups", "branch predictor lookups")
	b.mispredicts = st.Counter(prefix+".bpMispredicts", "mispredicted control instructions")
	b.btbMisses = st.Counter(prefix+".btbMisses", "indirect targets missing in BTB")
	return b
}

// Lookups returns the number of predictions made.
func (b *TournamentBP) Lookups() uint64 { return b.lookups.Count() }

// Mispredicts returns the resolved misprediction count. Users call
// RecordMispredict when a prediction proves wrong.
func (b *TournamentBP) Mispredicts() uint64 { return b.mispredicts.Count() }

// RecordMispredict accounts one resolved misprediction.
func (b *TournamentBP) RecordMispredict() { b.mispredicts.Inc() }

// MispredictRate returns mispredicts/lookups.
func (b *TournamentBP) MispredictRate() float64 {
	if b.lookups.Count() == 0 {
		return 0
	}
	return float64(b.mispredicts.Count()) / float64(b.lookups.Count())
}

func (b *TournamentBP) localIdx(pc uint32) int {
	return int(pc/isa.InstBytes) & (len(b.local) - 1)
}

func (b *TournamentBP) globalIdx(pc uint32) int {
	return int((pc/isa.InstBytes)^b.ghr) & (len(b.global) - 1)
}

func (b *TournamentBP) btbIdx(pc uint32) int {
	return int(pc/isa.InstBytes) & (len(b.btb) - 1)
}

// isCall reports a JAL/JALR that links into ra.
func isCall(in isa.Inst) bool { return in.IsJump() && in.Rd == 1 }

// isReturn reports the canonical jalr x0, 0(ra).
func isReturn(in isa.Inst) bool {
	return in.Op == isa.OpJalr && in.Rd == 0 && in.Rs1 == 1
}

// Predict returns the predicted outcome for the control instruction in at
// pc. The decoded instruction is available (decode-assisted BTB).
func (b *TournamentBP) Predict(pc uint32, in isa.Inst) Prediction {
	b.lookups.Inc()
	switch {
	case isReturn(in):
		if n := len(b.ras); n > 0 {
			return Prediction{Taken: true, Target: b.ras[n-1]}
		}
		b.btbMisses.Inc()
		return Prediction{Taken: true, Target: pc + isa.InstBytes}
	case in.Op == isa.OpJal:
		return Prediction{Taken: true, Target: pc + uint32(in.Imm)*isa.InstBytes}
	case in.IsIndirect():
		e := b.btb[b.btbIdx(pc)]
		if e.valid && e.tag == pc {
			return Prediction{Taken: true, Target: e.target}
		}
		b.btbMisses.Inc()
		return Prediction{Taken: true, Target: pc + isa.InstBytes} // unknown target
	default: // conditional branch
		taken := b.direction(pc)
		target := pc + isa.InstBytes
		if taken {
			target = pc + uint32(in.Imm)*isa.InstBytes
		}
		return Prediction{Taken: taken, Target: target}
	}
}

func (b *TournamentBP) direction(pc uint32) bool {
	l := b.local[b.localIdx(pc)]
	g := b.global[b.globalIdx(pc)]
	if b.choice[b.globalIdx(pc)].taken() {
		return g.taken()
	}
	return l.taken()
}

// Update trains the predictor with the resolved outcome.
func (b *TournamentBP) Update(pc uint32, in isa.Inst, taken bool, target uint32) {
	switch {
	case isCall(in):
		if len(b.ras) < cap(b.ras) {
			b.ras = append(b.ras, pc+isa.InstBytes)
		}
		if in.IsIndirect() {
			b.updateBTB(pc, target)
		}
	case isReturn(in):
		if n := len(b.ras); n > 0 {
			b.ras = b.ras[:n-1]
		}
	case in.IsIndirect():
		b.updateBTB(pc, target)
	case in.IsBranch():
		li, gi := b.localIdx(pc), b.globalIdx(pc)
		lCorrect := b.local[li].taken() == taken
		gCorrect := b.global[gi].taken() == taken
		// Train the choice table toward whichever component was right.
		if gCorrect && !lCorrect {
			b.choice[gi] = b.choice[gi].inc()
		} else if lCorrect && !gCorrect {
			b.choice[gi] = b.choice[gi].dec()
		}
		if taken {
			b.local[li] = b.local[li].inc()
			b.global[gi] = b.global[gi].inc()
		} else {
			b.local[li] = b.local[li].dec()
			b.global[gi] = b.global[gi].dec()
		}
		b.ghr = b.ghr<<1 | btoi(taken)
	}
}

func (b *TournamentBP) updateBTB(pc, target uint32) {
	b.btb[b.btbIdx(pc)] = btbEntry{tag: pc, target: target, valid: true}
}

func btoi(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}
