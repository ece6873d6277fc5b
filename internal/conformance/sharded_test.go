package conformance

import (
	"fmt"
	"strings"
	"testing"

	"gem5prof/internal/isa"
)

// diffSharded runs prog on one model serially and sharded, returning a
// description of every field that differs ("" when identical).
// The comparison covers the full Result — architectural end state, retired
// count, memory checksum, trace hash, final ticks — plus a rendered dump of
// the statistics registry, so a single diverging counter fails it.
func diffSharded(model string, prog *isa.Program) (string, error) {
	serial, err := RunModel(model, prog, true, nil)
	if err != nil {
		return "", fmt.Errorf("serial: %w", err)
	}
	sharded, err := RunModelSharded(model, prog, true, true, nil)
	if err != nil {
		return "", fmt.Errorf("sharded: %w", err)
	}
	var diffs []string
	add := func(field string, got, want interface{}) {
		diffs = append(diffs, fmt.Sprintf("%s: sharded got %v, serial %v", field, got, want))
	}
	if sharded.ExitCode != serial.ExitCode {
		add("exit", sharded.ExitCode, serial.ExitCode)
	}
	if sharded.Retired != serial.Retired {
		add("retired", sharded.Retired, serial.Retired)
	}
	if sharded.MemSum != serial.MemSum {
		add("mem", sharded.MemSum, serial.MemSum)
	}
	if sharded.TraceHash != serial.TraceHash {
		add("trace", sharded.TraceHash, serial.TraceHash)
	}
	if sharded.Ticks != serial.Ticks {
		add("ticks", sharded.Ticks, serial.Ticks)
	}
	for r := 0; r < 32; r++ {
		if sharded.Regs[r] != serial.Regs[r] {
			add(fmt.Sprintf("x%d", r), sharded.Regs[r], serial.Regs[r])
		}
		if sharded.FRegs[r] != serial.FRegs[r] {
			add(fmt.Sprintf("f%d", r), sharded.FRegs[r], serial.FRegs[r])
		}
	}
	if ss, sh := statDump(serial), statDump(sharded); ss != sh {
		add("stats", firstStatDiff(sh, ss), "(see diff)")
	}
	return strings.Join(diffs, "; "), nil
}

// statDump renders a registry deterministically for byte comparison.
func statDump(r *Result) string {
	var b strings.Builder
	for _, name := range r.Stats.Names() {
		fmt.Fprintf(&b, "%s = %v\n", name, r.Stats.Get(name))
	}
	return b.String()
}

// firstStatDiff returns the first differing line pair of two stat dumps.
func firstStatDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("%q (serial %q)", gl[i], wl[i])
		}
	}
	return fmt.Sprintf("dump length %d vs %d", len(gl), len(wl))
}

// TestShardedLockstepDifferential sweeps the conformance corpus through
// every CPU model, serial and sharded, and requires the full Result to be
// identical. On a mismatch it ddmin-minimizes the
// generated program to the smallest source still diverging, so the failure
// message is directly actionable.
func TestShardedLockstepDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		g := Generate(GenConfig{Seed: seed})
		prog, err := isa.Assemble(g.Src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		for _, model := range Models {
			diff, err := diffSharded(model, prog)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, model, err)
			}
			if diff == "" {
				continue
			}
			// Minimize before reporting: the smallest program whose
			// sharded run still diverges from serial.
			min := Minimize(g.Src, func(src string) bool {
				p, err := isa.Assemble(src)
				if err != nil {
					return false
				}
				d, err := diffSharded(model, p)
				return err == nil && d != ""
			}, 200)
			t.Fatalf("seed %d %s sharded diverged from serial:\n%s\nminimized reproducer:\n%s",
				seed, model, diff, min)
		}
	}
}

// FuzzShardedEquivalence lets the fuzzer hunt for generated programs whose
// sharded execution diverges from serial on any model — the bit-identity
// claim under adversarial event patterns rather than fixed seeds.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add(int64(1), byte(0), byte(0))
	f.Add(int64(42), byte(3), byte(1))
	f.Add(int64(-77), byte(5), byte(3))
	f.Fuzz(func(t *testing.T, seed int64, blocks, sel byte) {
		g := Generate(GenConfig{Seed: seed, Blocks: 2 + int(blocks%6)})
		prog, err := isa.Assemble(g.Src)
		if err != nil {
			t.Fatalf("generator emitted unassemblable source: %v\n%s", err, g.Src)
		}
		model := Models[int(sel)%len(Models)]
		diff, err := diffSharded(model, prog)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if diff != "" {
			t.Errorf("%s sharded diverged from serial: %s", model, diff)
		}
	})
}
