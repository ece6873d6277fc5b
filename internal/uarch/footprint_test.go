package uarch_test

import (
	"runtime"
	"strings"
	"testing"

	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/spec"
	"gem5prof/internal/uarch"
)

// TestSparseIsWaySize: a cache is sparse exactly when a way spans 64 KB or
// more, which on every shipped host, contended or not, is every L2 and LLC
// and no L1 or uop cache.
func TestSparseIsWaySize(t *testing.T) {
	var hosts []uarch.Config
	for _, h := range append(platform.TableIIPlatforms(), fig14Hosts()...) {
		hosts = append(hosts, h)
		for _, procs := range []int{2, 8, 20, 40} {
			hosts = append(hosts, platform.Contend(h, platform.Scenario{Procs: procs}),
				platform.Contend(h, platform.Scenario{Procs: procs, SMT: true}))
		}
	}
	for _, h := range hosts {
		m := uarch.NewMachine(h)
		for _, kind := range []string{"L1I", "L1D", "DSB", "L2", "LLC"} {
			want := kind == "L2" || kind == "LLC" && h.LLC.SizeBytes > 0
			if got := m.UnitOf(kind).Sparse(); got != want {
				t.Errorf("%s %s: sparse = %v, want %v", h.Name, kind, got, want)
			}
		}
	}
}

// mcfBlocks is the length of the quick Top-Down set's replay of a SPEC
// profile (internal/experiments).
const mcfBlocks = 150_000

// heldAfterMcf returns what each of the Xeon's units of kinds holds after the
// replay of 505.mcf_r in the quick Top-Down set.
func heldAfterMcf(t *testing.T, kinds ...string) []int {
	p, err := spec.ByName("505.mcf_r")
	if err != nil {
		t.Fatal(err)
	}
	m := uarch.NewMachine(platform.IntelXeon())
	p.Run(m, mcfBlocks)
	var held []int
	for _, kind := range kinds {
		held = append(held, m.UnitOf(kind).HeldBytes())
	}
	return held
}

// pinHeld fails when a unit holds more than 2% over pinned bytes on go1.24.
// Capacities follow the runtime's size classes, so another Go release only
// logs its figure.
func pinHeld(t *testing.T, kind string, got, pinned int) {
	t.Helper()
	t.Logf("the %s unit holds %d bytes (%s)", kind, got, runtime.Version())
	if strings.HasPrefix(runtime.Version(), "go1.24") && float64(got) > 1.02*float64(pinned) {
		t.Errorf("the %s unit holds %d bytes, want at most %.0f (2%% over %d)", kind, got, 1.02*float64(pinned), pinned)
	}
}

// TestLLCHeldBytes holds what a Xeon LLC unit keeps after the replay of
// 505.mcf_r in the quick Top-Down set, which gives 22 486 of its 32 768 sets
// a row, 1.70 lines on average and none more than eight: the set index and
// the row chunks, as TestLayoutHeldBytes (internal/hostmodel) holds a
// binary. With rows of seventeen 8-byte words it held 3 203 064 bytes; with
// an order word and sixteen 4-byte keys, 1 769 456; with rows sized to the
// ways their set has filled, 538 576 (go1.24 on linux/amd64). The bound is 2%
// over that.
func TestLLCHeldBytes(t *testing.T) {
	pinHeld(t, "LLC", heldAfterMcf(t, "LLC")[0], 538_576)
}

// TestL2HeldBytes holds what the Xeon L2 unit keeps after the same replay,
// which fills all of its 1 024 sets. Each set's row has grown through every
// class, and the smaller rows it left wait on their free lists for a set
// that is never touched, so the unit holds 127 456 bytes where rows of
// sixteen keys from the start held 78 208 (go1.24 on linux/amd64).
func TestL2HeldBytes(t *testing.T) {
	pinHeld(t, "L2", heldAfterMcf(t, "L2")[0], 127_456)
}

// TestAddressPastTheLimitPanics: hostmodel keeps every address it models
// below 2^47, where a sparse cache's 4-byte key holds any tag; an address at
// 2^47 that misses the L1 reaches the L2 and is refused by name rather than
// aliased to another line.
func TestAddressPastTheLimitPanics(t *testing.T) {
	if hostmodel.AddrLimit != 1<<uarch.AddrBits {
		t.Fatalf("hostmodel.AddrLimit = %#x, want 2^%d", uint64(hostmodel.AddrLimit), uarch.AddrBits)
	}
	m := uarch.NewMachine(platform.IntelXeon())
	m.Data(hostmodel.AddrLimit-64, 8, false) // the last line below it
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "uarch: cache: address 0x800000000000 is past 2^47") {
			t.Fatalf("Data at 2^47: recovered %q, want the cache's named panic", msg)
		}
	}()
	m.Data(hostmodel.AddrLimit, 8, false)
}
