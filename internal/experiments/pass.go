package experiments

import (
	"fmt"
	"slices"
	"sync"

	"gem5prof/internal/core"
	"gem5prof/internal/simpoint"
	"gem5prof/internal/spec"
	"gem5prof/internal/uarch"
)

// A declaration is the cells an experiment renders, in the order it reads
// them: its sessions, read whole (full) or only as modeled seconds
// (seconds), which the pass samples under -simpoint, then its replays, then
// its bare guests. Figures that render one measurement share one
// declaration, which a pass measures once.
type declaration struct {
	scs     func(Options) []core.SessionConfig
	seconds bool
	replays func(Options) []replay
	guests  func(Options) []bareGuest
}

func full(scs func(Options) []core.SessionConfig) *declaration {
	return &declaration{scs: scs}
}

func seconds(scs func(Options) []core.SessionConfig) *declaration {
	return &declaration{scs: scs, seconds: true}
}

// A replay is a SPEC profile driven through a host machine with no guest,
// and so no session (the SPEC bars of Figs. 2-6).
type replay struct {
	host   uarch.Config
	bench  string
	blocks int
}

// A bareGuest is a guest run with no host, and so no session (Fig. 16's
// cells). A workload checksum that fails is its error, which label names.
type bareGuest struct {
	label string
	cfg   core.GuestConfig
}

// A pass is one regeneration of a set of experiments — one RunMany, or one
// Run — and the whole of what it measures: newPass plans every cell the
// experiments declare (register) before anything runs, and an experiment's
// Run starts its declaration's cells, waits for them and hands them to its
// renderer. The sessions that share a guest, a binary and a mode ride one
// co-simulation, whatever their hosts (core.RunSessions,
// simpoint.Analysis.Sweep), and a co-simulation models equal hosts once. So
// a cell several figures declare runs once, and the sampled co-simulations
// of one config family share one simpoint.Analysis. A co-simulation starts
// on the pool when the first experiment that declares one of its cells
// starts, a replay when its declaration starts. Every cell's result is what
// its session alone returns (DESIGN §21, §22), so how the plan groups cells,
// and in which order the experiments start, changes no output byte. Nothing
// a pass measures outlives it.
type pass struct {
	runner *Runner
	sp     simpoint.Config

	mu    sync.Mutex
	decls map[*declaration][]*cellRun
	// open holds the runs not started yet.
	open []*cosimRun
	// families holds the SimPoint analysis of each config family the
	// sampled co-simulations run, keyed by simpoint.ConfigPrefix.
	families map[string]*family
	// started counts the runs started; tests read it.
	started int
}

// cellRun is one cell of a pass. Its outcome is set once the run it rides
// closes done: res for a full session and, of the host alone, for a replay,
// and secs for every session and replay; guest for a bare guest.
type cellRun struct {
	cosim *cosimRun
	res   *core.SessionResult
	secs  float64
	guest *core.GuestResult
	err   error
}

// cosimRun is one run of a pass: a co-simulation — cells of one guest,
// binary and mode — or one replay or bare guest.
type cosimRun struct {
	scs     []core.SessionConfig
	sampled *family // the sampled co-simulations' analysis
	replay  *replay
	guest   *bareGuest
	cells   []*cellRun
	done    chan struct{}
}

// family is one config family's SimPoint analysis, computed by the first of
// its co-simulations to run.
type family struct {
	once sync.Once
	a    *simpoint.Analysis
	err  error
}

// newPass plans the cells the experiments ids declare, taking the
// experiments in id order so that one set of ids makes one plan in
// whichever order it was given.
func newPass(ids []string, opt Options) *pass {
	p := &pass{runner: opt.runner, sp: simpointConfig(),
		decls: map[*declaration][]*cellRun{}, families: map[string]*family{}}
	ids = slices.Clone(ids)
	slices.Sort(ids)
	var decls []*declaration
	mu.Lock()
	for _, id := range ids {
		if d := registry[id].decl; d != nil {
			decls = append(decls, d)
		}
	}
	mu.Unlock()
	for _, d := range decls {
		p.plan(d, opt)
	}
	return p
}

// plan plans d's cells unless they are planned: each session joins the first
// open co-simulation that can take it, so the cells of one guest, binary and
// mode — every such cell the pass's experiments declare — ride one.
// core.CheckSweep validates both members it compares, so a cell that could
// not run even alone (a host or binary that does not validate) joins none
// and none joins it: its error stays its own. Each replay and bare guest is
// a run of its own.
func (p *pass) plan(d *declaration, opt Options) {
	if _, ok := p.decls[d]; ok {
		return
	}
	sampled := d.seconds && opt.SimPoint
	var runs []*cellRun
	for _, sc := range declared(d.scs, opt) {
		r := &cellRun{}
		for _, cs := range p.open {
			if len(cs.scs) > 0 && (cs.sampled != nil) == sampled && core.CheckSweep([]core.SessionConfig{cs.scs[0], sc}) == nil {
				r.cosim = cs
				break
			}
		}
		if r.cosim == nil {
			r.cosim = &cosimRun{done: make(chan struct{})}
			if sampled {
				key := simpoint.ConfigPrefix(sc.Guest)
				if p.families[key] == nil {
					p.families[key] = &family{}
				}
				r.cosim.sampled = p.families[key]
			}
			p.open = append(p.open, r.cosim)
		}
		r.cosim.scs = append(r.cosim.scs, sc)
		r.cosim.cells = append(r.cosim.cells, r)
		runs = append(runs, r)
	}
	var solos []*cosimRun
	for _, rp := range declared(d.replays, opt) {
		solos = append(solos, &cosimRun{replay: &rp})
	}
	for _, g := range declared(d.guests, opt) {
		solos = append(solos, &cosimRun{guest: &g})
	}
	for _, cs := range solos {
		r := &cellRun{cosim: cs}
		cs.cells, cs.done = []*cellRun{r}, make(chan struct{})
		p.open = append(p.open, cs)
		runs = append(runs, r)
	}
	p.decls[d] = runs
}

// declared returns the cells of one kind a declaration declares, none if it
// declares no cells of that kind.
func declared[T any](cells func(Options) []T, opt Options) []T {
	if cells == nil {
		return nil
	}
	return cells(opt)
}

// measure starts the runs d's cells ride that have not started, and returns
// the cells once every one has its outcome, or the lowest failing cell's
// error. A nil d measures nothing.
func (p *pass) measure(d *declaration) ([]*cellRun, error) {
	p.mu.Lock()
	runs := p.decls[d]
	for _, r := range runs {
		if i := slices.Index(p.open, r.cosim); i >= 0 {
			p.open = slices.Delete(p.open, i, i+1)
			p.started++
			cs := r.cosim
			p.runner.submit(func() { cs.run(p.sp) })
		}
	}
	p.mu.Unlock()
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

// run executes the co-simulation, replay or bare guest and sets every
// cell's outcome.
func (cs *cosimRun) run(sp simpoint.Config) {
	defer close(cs.done)
	if cs.replay != nil {
		r := cs.cells[0]
		if r.res, r.err = cs.replay.run(); r.err == nil {
			r.secs = r.res.SimSeconds()
		}
		return
	}
	if cs.guest != nil {
		r := cs.cells[0]
		r.guest, r.err = cs.guest.run()
		return
	}
	var err error
	if f := cs.sampled; f != nil {
		f.once.Do(func() { f.a, f.err = simpoint.Analyze(cs.scs[0].Guest, sp) })
		var rs []*simpoint.Result
		if err = f.err; err == nil {
			if rs, err = f.a.Sweep(cs.scs); err == nil {
				for i, r := range cs.cells {
					r.secs = rs[i].Seconds
				}
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

// run replays the benchmark on a machine of its host: a result of what its
// units counted, and their price.
func (rp *replay) run() (*core.SessionResult, error) {
	b, err := spec.ByName(rp.bench)
	if err != nil {
		return nil, err
	}
	res := &core.SessionResult{}
	if err := core.OnMachine(rp.host, func(m *uarch.Machine) { res.Counts = b.Run(m, rp.blocks) }); err != nil {
		return nil, err
	}
	res.Host = uarch.Price(&rp.host, &res.Counts)
	return res, nil
}

// run runs the guest and checks its workload's checksum.
func (bg *bareGuest) run() (*core.GuestResult, error) {
	r, err := core.RunGuest(bg.cfg)
	if err == nil && !r.ChecksumOK {
		err = fmt.Errorf("checksum mismatch (got %#x want %#x)", r.ExitCode, r.Expected)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", bg.label, err)
	}
	return r, nil
}

// describe names a session in an error.
func describe(sc core.SessionConfig) string {
	what := sc.Guest.Workload
	if sc.Guest.BootExit {
		what = "boot-exit"
	}
	return fmt.Sprintf("%s %s %s on %s", sc.Guest.Mode, sc.Guest.CPU, what, sc.Host.Name)
}

// secondsOf returns the cells' modeled host seconds in order: the full
// co-simulation's, or the SimPoint extrapolation for the cells of a seconds
// declaration under -simpoint. Only figures whose cells consume nothing but
// modeled seconds declare seconds; figures needing full Top-Down detail
// (fig11) declare full.
func secondsOf(cells []*cellRun) []float64 {
	out := make([]float64, len(cells))
	for i, r := range cells {
		out[i] = r.secs
	}
	return out
}
