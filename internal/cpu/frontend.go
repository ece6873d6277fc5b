package cpu

import (
	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// decodedInst is one entry of the front end's buffer: a fetched, decoded
// instruction and the next pc its fetch-time prediction chose.
type decodedInst struct {
	pc       uint32
	in       isa.Inst
	predNext uint32
}

// frontEnd is the buffered fetch/predict/decode stage MinorCPU and O3CPU
// share: one instruction-cache fetch in flight at most, then the fetched
// block decoded into the buffer along predicted control flow. It also owns
// the pipeline tick the model evaluates each cycle.
//
// The models differ only in the data they hand in at construction (per-
// instruction trace, buffer depth, whether fetch re-arms the tick at the
// end of a redirect penalty) and in how they squash: Minor charges the
// penalty from the squash, O3 from the resolution of the branch it names.
type frontEnd struct {
	core *Core
	bp   *TournamentBP
	tick *sim.Event

	// Construction data.
	fetchBytes uint32
	depth      int        // buffer capacity
	penalty    sim.Tick   // redirect bubble
	perInst    sim.FuncID // traced before each fetchWord; 0 (the scheduler's id) for none
	rearm      bool       // tryFetch re-arms the tick at stallUntil itself

	fetchPC    uint32
	fetchEpoch uint64
	fetchBusy  bool
	sentEpoch  uint64 // fetchEpoch when the in-flight fetch was sent
	fetchDone  func() // completeFetch, bound once: one fetch is in flight at most
	buffer     []decodedInst
	stallUntil sim.Tick
	// resolveSeq, when nonzero, stalls fetch until that instruction
	// resolves (O3's squash rule; see O3CPU.resolved).
	resolveSeq uint64

	squashes *sim.Counter
}

// init installs the model's construction data and binds the core's hooks
// to the stage.
func (f *frontEnd) init(data frontEnd) {
	*f = data
	f.fetchDone = f.completeFetch
	f.core.wakeup = f.schedule
	f.core.redirect = func(pc uint32) { f.squash(pc, 0) }
}

// Name implements sim.SimObject.
func (f *frontEnd) Name() string { return f.core.name }

// Core implements CPU.
func (f *frontEnd) Core() *Core { return f.core }

// BP returns the branch predictor for inspection.
func (f *frontEnd) BP() *TournamentBP { return f.bp }

// IPC implements CPU.
func (f *frontEnd) IPC() float64 { return f.core.cycleIPC() }

// Start implements CPU.
func (f *frontEnd) Start(entry uint32) {
	f.core.pc = entry
	f.fetchPC = entry
	f.schedule()
}

// schedule arms the pipeline tick for the next cycle if it is not pending.
func (f *frontEnd) schedule() {
	if f.core.halted || f.tick.Scheduled() {
		return
	}
	f.core.sys.ScheduleIn(f.tick, ClockPeriod)
}

// scheduleAt arms the pipeline tick at an absolute tick, moving it earlier
// if it is pending later.
func (f *frontEnd) scheduleAt(when sim.Tick) {
	if f.core.halted {
		return
	}
	if f.tick.Scheduled() {
		if f.tick.When() <= when {
			return
		}
		f.core.sys.Deschedule(f.tick)
	}
	f.core.sys.Reschedule(f.tick, when)
}

// squash discards every fetched instruction and redirects fetch to pc. With
// resolveSeq zero the redirect penalty runs from now; otherwise fetch waits
// for that instruction to resolve, and the penalty runs from then.
func (f *frontEnd) squash(pc uint32, resolveSeq uint64) {
	f.squashes.Inc()
	f.fetchEpoch++
	f.buffer = f.buffer[:0]
	f.fetchPC = pc
	f.resolveSeq = resolveSeq
	if resolveSeq == 0 {
		f.stallUntil = f.core.sys.Now() + f.penalty
	}
}

// tryFetch sends an instruction-cache fetch when the buffer has room and
// fetch is not held by a resolving branch or a redirect penalty.
func (f *frontEnd) tryFetch() {
	core := f.core
	if f.fetchBusy || core.halted || len(f.buffer) >= f.depth || f.resolveSeq != 0 {
		return
	}
	if core.sys.Now() < f.stallUntil {
		if f.rearm {
			f.scheduleAt(f.stallUntil)
		}
		return
	}
	f.sentEpoch = f.fetchEpoch
	f.fetchBusy = true
	core.sys.TraceCall(core.fnFetch)
	core.cfg.IPort.SendTiming(mem.Access{Addr: f.fetchPC, Size: isa.InstBytes, Inst: true}, f.fetchDone)
}

// completeFetch runs when the instruction cache responds.
func (f *frontEnd) completeFetch() {
	f.fetchBusy = false
	if f.core.halted {
		return
	}
	// Squashed while in flight: the redirected stream still needs fetching,
	// so re-arm the pipeline rather than going idle. Otherwise fetchPC is
	// still the pc that was sent: only a squash moves it during a fetch.
	if f.sentEpoch == f.fetchEpoch {
		f.fillBuffer(f.fetchPC)
	}
	f.schedule()
}

// fillBuffer decodes straight-line instructions from one fetched block,
// following predicted-taken control flow.
func (f *frontEnd) fillBuffer(start uint32) {
	core := f.core
	blockEnd := (start &^ (f.fetchBytes - 1)) + f.fetchBytes
	pc := start
	for pc < blockEnd && len(f.buffer) < f.depth {
		if f.perInst != 0 {
			core.sys.TraceCall(f.perInst)
		}
		w, err := core.fetchWord(pc)
		if err != nil {
			if pc == start && len(f.buffer) == 0 {
				// Fetch fault with an empty pipeline: inject an illegal
				// instruction so execute reports the fault instead of the
				// front end spinning forever.
				f.buffer = append(f.buffer, decodedInst{pc: pc, in: isa.Inst{Op: isa.OpInvalid}, predNext: pc})
			}
			break
		}
		in := core.decode(pc, w)
		next := pc + isa.InstBytes
		if in.IsControl() {
			pred := f.bp.Predict(pc, *in)
			if pred.Taken {
				next = pred.Target
			}
		}
		f.buffer = append(f.buffer, decodedInst{pc: pc, in: *in, predNext: next})
		pc = next
		if next < start || next >= blockEnd {
			break // control flow left the fetched block
		}
		if in.IsSystem() {
			break // serialize after system instructions
		}
	}
	f.fetchPC = pc
}
