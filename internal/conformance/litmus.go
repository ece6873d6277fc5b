package conformance

import (
	"fmt"
	"math/rand"
	"sort"

	"gem5prof/internal/isa"
	"gem5prof/internal/sim"
)

// The litmus suite checks the multicore guest's memory model. The simulator
// is sequentially consistent by construction — every load and store executes
// atomically at execute time in one global deterministic event order — so a
// multi-threaded guest must only ever exhibit SC outcomes. Each litmus test
// is a seeded multi-threaded KISA program shaped after the classic MP / SB /
// LB / IRIW patterns (plus random extra shared accesses and private timing
// filler): the worker threads pack the values their loads observed into
// disjoint nibbles of their exit words, the main thread joins them and exits
// with the combined outcome, and the harness compares that outcome against
// the set an SC reference interpreter admits by exhaustively interleaving
// the per-thread shared-access sequences. Any outcome outside the set —
// e.g. the relaxed MP reorder r1=1,r2=0 — is a coherence or determinism bug
// in the multicore machinery, not a legal weak-memory behaviour.

// litOp is one shared-memory access of a litmus thread.
type litOp struct {
	store bool
	loc   int    // shared location index (one cache block each)
	val   uint32 // stores: value written (1..3, unique per location)
	slot  int    // loads: global observation nibble index
}

// LitmusTest is one generated litmus program.
type LitmusTest struct {
	Name    string
	Seed    int64
	Shape   string
	Threads [][]litOp
	// Src is the assembled-from KISA source (thread 0 on the main core,
	// workers spawned through the SE threading syscalls).
	Src string
	// Allowed is the set of outcome words admitted by the SC reference
	// interpreter.
	Allowed map[uint32]bool
}

// litShapes are the classic bases; threads beyond the guest core count are
// never generated.
var litShapes = []struct {
	name    string
	threads [][]litOp
}{
	{"mp", [][]litOp{
		{{store: true, loc: 0}, {store: true, loc: 1}},
		{{loc: 1}, {loc: 0}},
	}},
	{"sb", [][]litOp{
		{{store: true, loc: 0}, {loc: 1}},
		{{store: true, loc: 1}, {loc: 0}},
	}},
	{"lb", [][]litOp{
		{{loc: 0}, {store: true, loc: 1}},
		{{loc: 1}, {store: true, loc: 0}},
	}},
	{"iriw", [][]litOp{
		{{store: true, loc: 0}},
		{{store: true, loc: 1}},
		{{loc: 0}, {loc: 1}},
		{{loc: 1}, {loc: 0}},
	}},
}

// Generation bounds: nibble packing allows 8 observation slots and store
// values 1..3 per location.
const (
	litMaxOpsPerThread = 3
	litMaxObs          = 8
	litMaxLocs         = 4
	litStackStride     = 0x8000
	litStackTop        = 0x00F0_0000
)

// GenLitmus generates the litmus test for seed on a guest with the given
// core count (>= 2). Shapes needing more threads than cores are folded onto
// the 2-thread shapes.
func GenLitmus(seed int64, cores int) *LitmusTest {
	rng := rand.New(rand.NewSource(seed))
	nShapes := len(litShapes)
	if cores < 4 {
		nShapes-- // iriw needs 4 threads
	}
	shape := litShapes[rng.Intn(nShapes)]

	// Deep-copy the base so mutation never touches the table.
	threads := make([][]litOp, len(shape.threads))
	for t, ops := range shape.threads {
		threads[t] = append([]litOp(nil), ops...)
	}

	// Sprinkle extra shared accesses, respecting the packing bounds.
	extras := rng.Intn(3)
	for i := 0; i < extras; i++ {
		t := rng.Intn(len(threads))
		if len(threads[t]) >= litMaxOpsPerThread {
			continue
		}
		op := litOp{store: rng.Intn(2) == 0, loc: rng.Intn(litMaxLocs)}
		pos := rng.Intn(len(threads[t]) + 1)
		threads[t] = append(threads[t][:pos], append([]litOp{op}, threads[t][pos:]...)...)
	}

	// Assign store values (1..3 per location, in thread-then-program
	// order) and observation slots; drop stores past a location's third.
	nextVal := make([]uint32, litMaxLocs)
	slot := 0
	for t := range threads {
		kept := threads[t][:0]
		for _, op := range threads[t] {
			if op.store {
				if nextVal[op.loc] >= 3 {
					continue
				}
				nextVal[op.loc]++
				op.val = nextVal[op.loc]
			} else {
				if slot >= litMaxObs {
					continue
				}
				op.slot = slot
				slot++
			}
			kept = append(kept, op)
		}
		threads[t] = kept
	}

	lt := &LitmusTest{
		Name:    fmt.Sprintf("%s_%d", shape.name, seed),
		Seed:    seed,
		Shape:   shape.name,
		Threads: threads,
		Allowed: scOutcomes(threads),
	}
	lt.Src = emitLitmus(threads, rng)
	return lt
}

// scOutcomes is the sequentially consistent reference interpreter: it
// exhaustively interleaves the per-thread access sequences over an initially
// zero memory and collects every packed outcome SC admits. (It enumerates
// all interleavings, a superset of those realizable under the program's
// spawn/join ordering, so membership is a sound "no SC violation" check.)
func scOutcomes(threads [][]litOp) map[uint32]bool {
	out := map[uint32]bool{}
	var memv [litMaxLocs]uint32
	pcs := make([]int, len(threads))
	var rec func(acc uint32)
	rec = func(acc uint32) {
		done := true
		for t := range threads {
			if pcs[t] >= len(threads[t]) {
				continue
			}
			done = false
			op := threads[t][pcs[t]]
			pcs[t]++
			if op.store {
				old := memv[op.loc]
				memv[op.loc] = op.val
				rec(acc)
				memv[op.loc] = old
			} else {
				rec(acc | (memv[op.loc]&15)<<(4*op.slot))
			}
			pcs[t]--
		}
		if done {
			out[acc] = true
		}
	}
	rec(0)
	return out
}

// AllowedList renders the allowed outcome set, sorted, for diagnostics.
func (lt *LitmusTest) AllowedList() []uint32 {
	outs := make([]uint32, 0, len(lt.Allowed))
	//lint:deterministic collected keys are sorted before use
	for o := range lt.Allowed {
		outs = append(outs, o)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i] < outs[j] })
	return outs
}

// emitLitmus renders the test as KISA assembly. Shared locations live one
// cache block apart so every access is a distinct coherence unit; each
// thread also gets a private block for seeded timing filler.
func emitLitmus(threads [][]litOp, rng *rand.Rand) string {
	// filler emits 0..2 private instructions that perturb timing (and cache
	// state) without touching the shared observations.
	filler := func(t int) string {
		s := ""
		for i := rng.Intn(3); i > 0; i-- {
			switch rng.Intn(3) {
			case 0:
				s += fmt.Sprintf("\tadd%c t5, t5, %d\n", 'i', 1+rng.Intn(64))
			case 1:
				s += fmt.Sprintf("\tsw   t5, %d(s1)\n", t*64)
			default:
				s += fmt.Sprintf("\tlw   t6, %d(s1)\n", t*64)
			}
		}
		return s
	}
	body := func(t int) string {
		s := "\tla   s0, lit_locs\n\tla   s1, lit_priv\n\tli   s7, 0\n"
		for _, op := range threads[t] {
			s += filler(t)
			if op.store {
				s += fmt.Sprintf("\tli   t0, %d\n\tsw   t0, %d(s0)\n", op.val, op.loc*64)
			} else {
				s += fmt.Sprintf("\tlw   t1, %d(s0)\n\tandi t1, t1, 15\n", op.loc*64)
				if op.slot > 0 {
					s += fmt.Sprintf("\tslli t1, t1, %d\n", op.slot*4)
				}
				s += "\tor   s7, s7, t1\n"
			}
		}
		return s + filler(t)
	}

	src := fmt.Sprintf("\t.org 0x1000\n_start:\n\tli   sp, %#x\n", litStackTop)
	// Spawn workers 1..T-1, keeping their hart ids in s2..s4.
	for w := 1; w < len(threads); w++ {
		src += fmt.Sprintf(`	la   a0, litw%d
	li   a1, %#x
	li   a2, 0
	li   a7, 1001
	ecall
	mv   s%d, a0
`, w, litStackTop-w*litStackStride, 1+w)
	}
	src += body(0)
	for w := 1; w < len(threads); w++ {
		src += fmt.Sprintf("\tmv   a0, s%d\n\tli   a7, 1002\n\tecall\n\tor   s7, s7, a0\n", 1+w)
	}
	src += "\tmv   a0, s7\n\tli   a7, 93\n\tecall\n"
	for w := 1; w < len(threads); w++ {
		src += fmt.Sprintf("litw%d:\n", w)
		src += body(w)
		src += "\tmv   a0, s7\n\tli   a7, 1003\n\tecall\n"
	}
	src += fmt.Sprintf("\n\t.align 64\nlit_locs:\n\t.space %d\nlit_priv:\n\t.space %d\n",
		litMaxLocs*64, 8*64)
	return src
}

// LitmusResult is the outcome of one litmus run on one model.
type LitmusResult struct {
	Outcome uint32
	Ticks   sim.Tick
	// Violations holds the SC violation (if the outcome is outside the
	// allowed set) plus any coherence invariant or audit failures.
	Violations []string
	Stats      *sim.Registry
}

// OK reports a clean run.
func (r *LitmusResult) OK() bool { return len(r.Violations) == 0 }

// RunLitmus executes the test's program on a multicore SE guest rig (cores
// must be >= the test's thread count; extra cores stay parked) and checks
// the observed outcome against the SC set, the coherence stat invariants,
// and the directory's structural audit.
func RunLitmus(lt *LitmusTest, model string, cores int) (*LitmusResult, error) {
	return RunLitmusSharded(lt, model, cores, false)
}

// RunLitmusSharded is RunLitmus with the choice of the sharded event queue
// (DRAM on a worker shard; an Atomic rig runs serially, see RunModelSharded);
// the result must be identical either way (the battery diffs it against the
// serial run).
func RunLitmusSharded(lt *LitmusTest, model string, cores int, sharded bool) (*LitmusResult, error) {
	if cores < len(lt.Threads) {
		return nil, fmt.Errorf("conformance: litmus %s needs %d cores, got %d", lt.Name, len(lt.Threads), cores)
	}
	prog, err := isa.Assemble(lt.Src)
	if err != nil {
		return nil, fmt.Errorf("conformance: litmus %s: assemble: %w", lt.Name, err)
	}
	g, err := buildRig(model, cores, true, sharded, prog)
	if err != nil {
		return nil, err
	}
	res := g.Sys.Run(runTimeout, eventLimit)
	if res.Status != sim.ExitRequested {
		return nil, fmt.Errorf("conformance: litmus %s on %s did not exit: %v after %d events (reason %q)",
			lt.Name, model, res.Status, res.Events, res.ExitReason)
	}
	out := &LitmusResult{Outcome: uint32(res.ExitCode), Ticks: g.Sys.Now(), Stats: g.Sys.Stats()}
	if !lt.Allowed[out.Outcome] {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"litmus %s on %s cores=%d: outcome %#x outside the SC-allowed set %#x",
			lt.Name, model, cores, out.Outcome, lt.AllowedList()))
	}
	for _, v := range CheckStats(out.Stats, model == "atomic") {
		out.Violations = append(out.Violations, fmt.Sprintf("litmus %s on %s cores=%d: %s", lt.Name, model, cores, v))
	}
	for _, v := range g.Hier.Dir.Audit() {
		out.Violations = append(out.Violations, fmt.Sprintf("litmus %s on %s cores=%d: %s", lt.Name, model, cores, v))
	}
	return out, nil
}

// WriteLitmusRepro minimizes a violating litmus program with the shared
// ddmin and writes a reproducer source under dir, mirroring the campaign's
// writeRepro.
func WriteLitmusRepro(lt *LitmusTest, model string, cores int, dir string) (string, error) {
	stillFails := func(src string) bool {
		cand := *lt
		cand.Src = src
		r, err := RunLitmus(&cand, model, cores)
		return err == nil && !r.OK()
	}
	min := lt.Src
	if stillFails(lt.Src) {
		min = Minimize(lt.Src, stillFails, 200)
	}
	header := fmt.Sprintf(
		"# litmus reproducer\n# shape: %s seed: %d model: %s cores: %d\n# allowed: %#x\n# regenerate: GenLitmus(%d, %d)\n",
		lt.Shape, lt.Seed, model, cores, lt.AllowedList(), lt.Seed, cores)
	return writeReproFile(dir, fmt.Sprintf("litmus_%s_%s.s", lt.Name, model), header+min+"\n")
}
