package experiments

import (
	"context"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
)

// Runner executes the independent simulation runs of an experiment — and,
// via RunMany, whole experiments — on a bounded worker pool. Every run
// constructs its own guest (sim.System, CPUs, memory system) and shares
// nothing that one run writes and another reads: the simulator binary's
// layout it may find already built is immutable and checked call by call,
// the host machine it may be handed was somebody else's and is reset
// completely (core's construction stores, DESIGN §20). So each result is a
// pure function of its cell's config, whatever ran before it on whichever
// worker; determinism comes from collecting results by cell index. No cell
// sets core.GuestConfig.Seed: the result does not depend on it, and the
// field stays only because bench/ sets it. A parallel schedule is therefore
// bit-identical to the sequential one: `-j 8` renders the same bytes as
// `-j 1`.
type Runner struct {
	workers int
	sem     chan struct{}
}

// NewRunner returns a runner whose pool admits n concurrent simulation runs;
// n <= 0 uses GOMAXPROCS.
func NewRunner(n int) *Runner {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: n, sem: make(chan struct{}, n)}
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// submit runs fn on the pool once a worker slot frees up. Only leaf
// simulation runs hold slots — experiment coordinators (RunMany) never do,
// which is what lets the nested fan-out proceed without deadlocking the
// pool at -j 1.
//
// Goroutine accounting with the co-simulation pipeline: a slot admits one
// co-simulation, and a pipelined one adds exactly one uarch-consumer
// goroutine for the duration of its run (core.RunSessions starts it after
// admission and joins it before releasing the slot), so the harness runs
// at most 2*Jobs simulation goroutines no matter how many experiments are
// in flight.
//
// Workers carry the pprof label cosim-stage=experiment-worker; pipelined
// sessions re-label their producer span and consumer goroutine, so a
// -cpuprofile from cmd/experiments splits time across all three stages.
func (r *Runner) submit(fn func()) {
	go func() {
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
		pprof.Do(context.Background(),
			pprof.Labels("cosim-stage", "experiment-worker"),
			func(context.Context) { fn() })
	}()
}

// Outcome is one experiment's result from RunMany.
type Outcome struct {
	ID  string
	Res *Result
	Err error
}

// RunMany regenerates the given experiments concurrently — every experiment
// coordinator starts immediately, the co-simulations they need are planned
// once for all of them (one pass, pass.go), and the simulation runs share
// one pool bounded by opt.Jobs — and returns a channel yielding one Outcome
// per id in ids order (not completion order), as each becomes available.
// Rendered output is byte-identical for any worker count.
func RunMany(ids []string, opt Options) <-chan Outcome {
	ids = slices.Clone(ids)
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	opt = opt.withRunner(ids...)
	pending := make([]chan Outcome, len(ids))
	for i, id := range ids {
		pending[i] = make(chan Outcome, 1)
		go func() {
			res, err := Run(id, opt)
			pending[i] <- Outcome{ID: id, Res: res, Err: err}
		}()
	}
	out := make(chan Outcome)
	go func() {
		for _, c := range pending {
			out <- <-c
		}
		close(out)
	}()
	return out
}

// ResetCaches does nothing: a pass keeps what it measures, and nothing a
// pass measures outlives it. It stays because bench/ calls it.
func ResetCaches() {}
