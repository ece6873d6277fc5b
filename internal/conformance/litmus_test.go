package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// litStatDump renders a litmus run's registry deterministically.
func litStatDump(r *LitmusResult) string {
	var b strings.Builder
	for _, name := range r.Stats.Names() {
		fmt.Fprintf(&b, "%s = %v\n", name, r.Stats.Get(name))
	}
	return b.String()
}

// TestLitmusSCReference hand-checks the SC interpreter on the classic
// shapes: the textbook-forbidden outcomes must be outside the allowed set
// and the textbook-allowed ones inside it.
func TestLitmusSCReference(t *testing.T) {
	mp := [][]litOp{
		{{store: true, loc: 0, val: 1}, {store: true, loc: 1, val: 1}},
		{{loc: 1, slot: 0}, {loc: 0, slot: 1}},
	}
	got := scOutcomes(mp)
	want := map[uint32]bool{0x00: true, 0x10: true, 0x11: true}
	if len(got) != len(want) {
		t.Fatalf("mp allowed = %v", got)
	}
	for o := range want {
		if !got[o] {
			t.Errorf("mp: SC outcome %#x missing", o)
		}
	}
	if got[0x01] {
		t.Error("mp: relaxed outcome r_y=1,r_x=0 admitted by the SC reference")
	}

	sb := [][]litOp{
		{{store: true, loc: 0, val: 1}, {loc: 1, slot: 0}},
		{{store: true, loc: 1, val: 1}, {loc: 0, slot: 1}},
	}
	if got := scOutcomes(sb); got[0x00] {
		t.Error("sb: both-zero outcome admitted by the SC reference")
	} else if !got[0x11] || !got[0x01] || !got[0x10] {
		t.Errorf("sb allowed = %v", got)
	}

	iriw := [][]litOp{
		{{store: true, loc: 0, val: 1}},
		{{store: true, loc: 1, val: 1}},
		{{loc: 0, slot: 0}, {loc: 1, slot: 1}},
		{{loc: 1, slot: 2}, {loc: 0, slot: 3}},
	}
	if got := scOutcomes(iriw); got[0x0101] {
		t.Error("iriw: readers disagreeing on the store order admitted by the SC reference")
	} else if !got[0x1111] {
		t.Errorf("iriw: all-ones outcome missing from %v", got)
	}
}

// TestLitmusGenerateDeterministic pins the generator: the same seed and
// core count must yield byte-identical source and the same allowed set, so
// any battery failure reproduces from its seed alone.
func TestLitmusGenerateDeterministic(t *testing.T) {
	for _, cores := range []int{2, 4} {
		a := GenLitmus(1234, cores)
		b := GenLitmus(1234, cores)
		if a.Src != b.Src {
			t.Fatalf("cores=%d: source not deterministic", cores)
		}
		if fmt.Sprintf("%#x", a.AllowedList()) != fmt.Sprintf("%#x", b.AllowedList()) {
			t.Fatalf("cores=%d: allowed set not deterministic", cores)
		}
		if len(a.Allowed) == 0 {
			t.Fatalf("cores=%d: empty allowed set", cores)
		}
	}
}

// TestLitmusBattery is the multicore acceptance gate: generated litmus
// programs across every shape, run on 2- and 4-core guests, must only ever
// exhibit SC-allowed outcomes and must pass the coherence stat invariants
// and the directory's structural audit. Atomic and timing cover the full
// seed range; the pipelined models sample it (they are ~10x slower and
// exercise the same coherence machinery through the same ports).
func TestLitmusBattery(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	const group = 25
	for start := 0; start < seeds; start += group {
		start, end := start, start+group
		if end > seeds {
			end = seeds
		}
		t.Run(fmt.Sprintf("seeds_%d_%d", start, end-1), func(t *testing.T) {
			t.Parallel()
			for seed := start; seed < end; seed++ {
				for _, cores := range []int{2, 4} {
					lt := GenLitmus(int64(seed), cores)
					models := []string{"atomic", "timing"}
					if seed%8 == 0 {
						models = Models
					}
					for _, model := range models {
						r, err := RunLitmus(lt, model, cores)
						if err != nil {
							t.Fatalf("seed %d cores=%d %s: %v", seed, cores, model, err)
						}
						for _, v := range r.Violations {
							t.Error(v)
						}
						if !r.OK() {
							path, werr := WriteLitmusRepro(lt, model, cores, t.TempDir())
							t.Fatalf("reproducer written to %s (write err: %v)\n%s", path, werr, lt.Src)
						}
					}
				}
			}
		})
	}
}

// TestLitmusDeterministicAndSharded pins the multicore determinism
// contract on the litmus rig: repeated runs are bit-identical (outcome,
// ticks, and the full statistics dump), and a sharded event queue changes
// none of it.
func TestLitmusDeterministicAndSharded(t *testing.T) {
	for _, seed := range []int64{3, 17, 64} {
		for _, cores := range []int{2, 4} {
			lt := GenLitmus(seed, cores)
			for _, model := range Models {
				serial, err := RunLitmus(lt, model, cores)
				if err != nil {
					t.Fatalf("seed %d cores=%d %s: %v", seed, cores, model, err)
				}
				again, err := RunLitmus(lt, model, cores)
				if err != nil {
					t.Fatal(err)
				}
				sharded, err := RunLitmusSharded(lt, model, cores, true)
				if err != nil {
					t.Fatal(err)
				}
				for run, r := range map[string]*LitmusResult{"rerun": again, "sharded": sharded} {
					if r.Outcome != serial.Outcome || r.Ticks != serial.Ticks {
						t.Errorf("seed %d cores=%d %s %s: outcome/ticks %#x@%d != serial %#x@%d",
							seed, cores, model, run, r.Outcome, r.Ticks, serial.Outcome, serial.Ticks)
					}
					if d, s := litStatDump(r), litStatDump(serial); d != s {
						t.Errorf("seed %d cores=%d %s %s: stats diverge: %s",
							seed, cores, model, run, firstStatDiff(d, s))
					}
				}
			}
		}
	}
}

// TestLitmusReproWriter plants a violation (an artificially emptied allowed
// set) and checks the writer minimizes and records a replayable reproducer.
func TestLitmusReproWriter(t *testing.T) {
	lt := GenLitmus(5, 2)
	lt.Allowed = map[uint32]bool{} // every outcome now "violates"
	dir := t.TempDir()
	path, err := WriteLitmusRepro(lt, "atomic", 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	if !strings.HasPrefix(body, "# litmus reproducer") {
		t.Fatalf("missing header:\n%s", body)
	}
	if !strings.Contains(body, "seed: 5") || !strings.Contains(body, "cores: 2") {
		t.Fatalf("header lost the regeneration coordinates:\n%s", body)
	}
	if len(body) >= len(lt.Src)+300 {
		t.Errorf("ddmin did not shrink the program: %d bytes vs %d source", len(body), len(lt.Src))
	}
}

// TestLitmusReproReplay regenerates every checked-in litmus reproducer
// from the seed and core count in its header and re-runs the full check:
// once the underlying bug is fixed the file becomes a pinned regression.
func TestLitmusReproReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "repro", "litmus_*.s"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var shape, model string
			var seed int64
			var cores int
			for _, line := range strings.Split(string(data), "\n") {
				if _, err := fmt.Sscanf(line, "# shape: %s seed: %d model: %s cores: %d",
					&shape, &seed, &model, &cores); err == nil {
					break
				}
			}
			if cores == 0 {
				t.Fatalf("no regeneration header in %s", file)
			}
			lt := GenLitmus(seed, cores)
			r, err := RunLitmus(lt, model, cores)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range r.Violations {
				t.Errorf("still violating: %s", v)
			}
		})
	}
}
