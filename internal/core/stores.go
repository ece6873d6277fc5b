package core

import (
	"fmt"
	"slices"
	"sync"

	"gem5prof/internal/hostmodel"
	"gem5prof/internal/isa"
	"gem5prof/internal/uarch"
	"gem5prof/internal/workloads"
)

// Construction is paid once and reset many times. Three process-wide stores,
// all owned here, keep what building a session produces and running it does
// not consume:
//
//   - layouts: the synthetic simulator binaries (hostmodel.Layout), immutable
//     and shared, under their normalised hostmodel.Config. A session's code
//     model follows them registration by registration and builds only what
//     none of them recorded, so the real key is that config plus the
//     verified sequence itself.
//   - units: idle uarch.Units — caches, uop caches, predictors, translation
//     units — under their uarch.UnitKey. A session assembles its one
//     machine from them, one unit per distinct key among its hosts, and
//     hands every unit back once the session's Reports have been extracted,
//     so a repeated sweep builds no structure.
//   - images: assembled guest programs, read-only once built, which
//     guest.Memory.Load copies out of: workloads under (workload, scale),
//     each with its words decoded once (isa.Predecode), so that every core
//     of every guest of that image fetches through the one decoded table,
//     and FS kernels under their workloads.KernelConfig, not predecoded.
//
// None of them holds a statistic or anything a run has written and a later
// run reads: reuse is either verified against what a fresh build would do
// (layouts) or total (a unit reset as it is drawn, an image that is only
// copied from), so a result stays a pure function of its config whatever
// ran before, on whatever goroutine — which the goldens and identity tests
// hold byte for byte. They are not measurement caches, and they outlive
// the experiments harness's passes, which keep no measurement between them.
// Each holds at most a small
// constant number of entries, least recently used out first, sized to what
// the figure suite cycles through — eight simulator binaries (the Top-Down
// set's four CPU models in SE and FS; the sampled figures use six), which
// hold 3.6 MB of function headers and trace steps between them, 0.2 MB for
// an Atomic binary and 0.7 MB for an O3 one (DESIGN §20), the
// units of its host geometries (Fig. 14's seven FireSim hosts alone hand
// back 25) and its images (fourteen workloads and three kernels) — and no
// further: everything kept here is live heap, and the
// collector lets the heap grow to twice that. The capacities are not knobs.
var (
	layouts = store[hostmodel.Config, *hostmodel.Layout]{max: 8}
	units   = store[uarch.UnitKey, *uarch.Unit]{max: 48}
	images  = store[imageKey, image]{max: 24}
)

// imageKey names one assembled guest program: a workload at a scale, or
// the FS kernel of a config.
type imageKey struct {
	workload string
	scale    int
	kernel   workloads.KernelConfig
}

// image is a workload program, its predecoded words and its reference
// checksum, or a kernel program alone.
type image struct {
	prog   *isa.Program
	dec    *isa.Decoded
	expect uint32
}

// store is a small list of keyed values, most recently used first, safe for
// concurrent use. Several values may share a key: the idle units of one
// geometry do, and so do the binaries of one code-model config.
type store[K comparable, V any] struct {
	mu   sync.Mutex
	max  int
	ents []storeEntry[K, V]
}

type storeEntry[K comparable, V any] struct {
	key K
	val V
}

// take removes and returns the most recently used value under key; the
// caller owns it until it puts it back.
func (s *store[K, V]) take(key K) (v V, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, e := range s.ents {
		if e.key == key {
			s.ents = slices.Delete(s.ents, i, i+1)
			return e.val, true
		}
	}
	return v, false
}

// peek returns the values under key, most recently used first, without
// counting as a use of any.
func (s *store[K, V]) peek(key K) []V {
	s.mu.Lock()
	defer s.mu.Unlock()
	var vals []V
	for _, e := range s.ents {
		if e.key == key {
			vals = append(vals, e.val)
		}
	}
	return vals
}

// put marks a value used, moving it to the front. When same is non-nil and
// accepts a value already stored under key, it is that value which is
// marked and val is not stored; otherwise val goes in, and past the bound
// the least recently used entry goes out.
func (s *store[K, V]) put(key K, val V, same func(V) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := len(s.ents)
	if same != nil {
		for i, e := range s.ents {
			if e.key == key && same(e.val) {
				val, at = e.val, i
				break
			}
		}
	}
	if at == len(s.ents) {
		if at < s.max {
			s.ents = append(s.ents, storeEntry[K, V]{})
		} else {
			at--
		}
	}
	copy(s.ents[1:at+1], s.ents[:at])
	s.ents[0] = storeEntry[K, V]{key, val}
}

// acquireMachine returns a machine armed for hosts, one lane each, which
// must validate, on idle units where the store has them.
func acquireMachine(hosts ...uarch.Config) *uarch.Machine {
	return uarch.Assemble(takeUnit, hosts...)
}

// releaseMachine hands every unit of a machine nobody reads any more back
// for reuse.
func releaseMachine(m *uarch.Machine) { m.Release(putUnit) }

func takeUnit(key uarch.UnitKey) *uarch.Unit {
	u, _ := units.take(key)
	return u
}

func putUnit(u *uarch.Unit) { units.put(u.Key(), u, nil) }

// OnMachine calls fn with a machine armed for host, for host-side replays
// that have no guest and so no session (the SPEC profiles of Figs. 2-6). The
// machine's units come from the store every session draws on and go back
// when fn returns, so fn must not keep the machine; what it computes is what a machine from
// uarch.NewMachine(host) would.
func OnMachine(host uarch.Config, fn func(*uarch.Machine)) error {
	if err := host.Validate(); err != nil {
		return fmt.Errorf("core: host: %w", err)
	}
	m := acquireMachine(host)
	defer releaseMachine(m)
	fn(m)
	return nil
}
