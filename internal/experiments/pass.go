package experiments

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"gem5prof/internal/core"
	"gem5prof/internal/simpoint"
)

// A declaration is the sessions an experiment reads, in the order it reads
// them: read whole (full), or only as modeled seconds (seconds), which the
// pass samples under -simpoint. An experiment registers the declaration it
// asks the pass for, so the pass can plan it before anything runs; figures
// that read one measurement share one declaration, which a pass takes once.
type declaration struct {
	scs     func(Options) []core.SessionConfig
	seconds bool
}

func full(scs func(Options) []core.SessionConfig) *declaration {
	return &declaration{scs: scs}
}

func seconds(scs func(Options) []core.SessionConfig) *declaration {
	return &declaration{scs: scs, seconds: true}
}

// A pass is one regeneration of a set of experiments — one RunMany, or one
// Run — and its plan: the cells (sessions) the experiments declare
// (register) that share a guest, a binary and a mode run as one
// co-simulation, whatever their hosts (core.RunSessions,
// simpoint.RunSampledSweep), and a co-simulation models equal hosts once. So
// a cell several figures declare runs once. A co-simulation starts on the
// pool when an experiment first asks for one of its cells, so a figure that
// finds its measurement cached (the Top-Down set) starts nothing; a
// declaration nobody registered is planned when it is asked for. Every
// cell's result is what its session alone returns (DESIGN §21, §22), so how
// the plan groups cells, and in which order the experiments ask, changes no
// output byte.
type pass struct {
	runner *Runner
	sp     simpoint.Config

	mu    sync.Mutex
	decls map[*declaration][]*cellRun
	// open holds the co-simulations not started yet, which a new cell may
	// join; a started one takes no more.
	open []*cosimRun
	// unplanned counts the declarations asked for that the pass's
	// experiments did not register, and started the co-simulations started;
	// tests read them.
	unplanned, started int
	// dry passes run nothing: get fails with errDry once it has planned
	// what it was asked for (a test checks declarations with it).
	dry bool
}

var errDry = errors.New("experiments: dry pass")

// cellRun is one cell of a pass. Its outcome is set once the co-simulation
// it rides closes done.
type cellRun struct {
	cosim *cosimRun
	res   *core.SessionResult // full cells
	secs  float64
	err   error
}

// cosimRun is one co-simulation of a pass: cells of one guest, binary and
// mode, as sessions and their runs.
type cosimRun struct {
	scs     []core.SessionConfig
	sampled bool
	cells   []*cellRun
	done    chan struct{}
}

// newPass plans the cells the experiments ids declare, taking the
// experiments in id order so that one set of ids makes one plan in
// whichever order it was given.
func newPass(ids []string, opt Options) *pass {
	p := &pass{runner: opt.runner, sp: opt.simpointConfig(), decls: map[*declaration][]*cellRun{}}
	ids = slices.Clone(ids)
	slices.Sort(ids)
	var decls []*declaration
	mu.Lock()
	for _, id := range ids {
		if d := registry[id].cells; d != nil {
			decls = append(decls, d)
		}
	}
	mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range decls {
		p.plan(d, opt)
	}
	return p
}

// plan returns the runs of d's sessions, planning them now if they are not
// yet: each cell joins the first open co-simulation that can take it, so the
// cells of one guest, binary and mode planned before any of them starts —
// every cell declared by the pass's experiments — ride one. core.CheckSweep
// validates both members it compares, so a cell that could not run even
// alone (a host or binary that does not validate) joins none and none joins
// it: its error stays its own. The caller holds p.mu.
func (p *pass) plan(d *declaration, opt Options) []*cellRun {
	if runs, ok := p.decls[d]; ok {
		return runs
	}
	scs, sampled := d.scs(opt), d.seconds && opt.SimPoint
	runs := make([]*cellRun, len(scs))
	for i, sc := range scs {
		r := &cellRun{}
		for _, cs := range p.open {
			if cs.sampled == sampled && core.CheckSweep([]core.SessionConfig{cs.scs[0], sc}) == nil {
				r.cosim = cs
				break
			}
		}
		if r.cosim == nil {
			r.cosim = &cosimRun{sampled: sampled, done: make(chan struct{})}
			p.open = append(p.open, r.cosim)
		}
		r.cosim.scs = append(r.cosim.scs, sc)
		r.cosim.cells = append(r.cosim.cells, r)
		runs[i] = r
	}
	p.decls[d] = runs
	return runs
}

// start returns the runs of d, submitting to the pool the co-simulations
// they ride that have not started.
func (p *pass) start(d *declaration, opt Options) []*cellRun {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.decls[d]; !ok {
		p.unplanned++
	}
	runs := p.plan(d, opt)
	if p.dry {
		return runs
	}
	for _, r := range runs {
		if i := slices.Index(p.open, r.cosim); i >= 0 {
			p.open = slices.Delete(p.open, i, i+1)
			p.started++
			cs := r.cosim
			p.runner.submit(func() { cs.run(p.sp) })
		}
	}
	return runs
}

// wait returns runs once every one has its outcome, or the lowest failing
// cell's error.
func (p *pass) wait(runs []*cellRun) ([]*cellRun, error) {
	if p.dry {
		return nil, errDry
	}
	for _, r := range runs {
		<-r.cosim.done
	}
	for _, r := range runs {
		if r.err != nil {
			return nil, r.err
		}
	}
	return runs, nil
}

// run executes the co-simulation and sets every cell's outcome.
func (cs *cosimRun) run(sp simpoint.Config) {
	defer close(cs.done)
	var err error
	if cs.sampled {
		var rs []*simpoint.Result
		if rs, err = simpoint.RunSampledSweep(cs.scs, sp); err == nil {
			for i, r := range cs.cells {
				r.secs = rs[i].Seconds
			}
		}
	} else {
		var rs []*core.SessionResult
		if rs, err = core.RunSessions(cs.scs); err == nil {
			for i, r := range cs.cells {
				r.res, r.secs = rs[i], rs[i].SimSeconds()
			}
		}
	}
	if err != nil {
		for i, r := range cs.cells {
			r.err = fmt.Errorf("%s: %w", describe(cs.scs[i]), err)
		}
	}
}

// describe names a session in an error.
func describe(sc core.SessionConfig) string {
	what := sc.Guest.Workload
	if sc.Guest.BootExit {
		what = "boot-exit"
	}
	return fmt.Sprintf("%s %s %s on %s", sc.Guest.Mode, sc.Guest.CPU, what, sc.Host.Name)
}

// sessions runs d's sessions through the options' pass and returns their
// full results in order. d must not be a seconds declaration.
func sessions(opt Options, d *declaration) ([]*core.SessionResult, error) {
	return results(opt.pass.wait(opt.pass.start(d, opt)))
}

// results returns the full results of runs in order.
func results(runs []*cellRun, err error) ([]*core.SessionResult, error) {
	if err != nil {
		return nil, err
	}
	out := make([]*core.SessionResult, len(runs))
	for i, r := range runs {
		out[i] = r.res
	}
	return out, nil
}

// cellSeconds runs d's sessions through the options' pass and returns their
// modeled host seconds in order: the full co-simulation normally, or the
// SimPoint extrapolation when d is a seconds declaration and the harness runs
// with -simpoint. Only figures whose cells consume nothing but SimSeconds()
// declare seconds — figures needing full Top-Down detail (fig11) always run
// full.
func cellSeconds(opt Options, d *declaration) ([]float64, error) {
	runs, err := opt.pass.wait(opt.pass.start(d, opt))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.secs
	}
	return out, nil
}
