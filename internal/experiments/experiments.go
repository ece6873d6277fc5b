// Package experiments regenerates every table and figure of the paper's
// evaluation from the co-simulation library. Each experiment returns a
// Result whose rows mirror the series the paper plots; EXPERIMENTS.md
// records the shape comparison against the published numbers.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Options tune experiment cost.
type Options struct {
	// Quick shrinks workload sets and problem sizes for use from unit
	// tests and benchmarks. The full harness (cmd/experiments) leaves it
	// false.
	Quick bool
	// Jobs bounds how many simulation runs execute concurrently (the
	// harness's -j flag). 0 means GOMAXPROCS; 1 reproduces the sequential
	// harness. A run is one co-simulation, replay or bare guest of the pass
	// (pass.go). The rendered output is byte-identical for every value:
	// every cell's result is what its session or guest alone returns, and
	// results are collected in cell order. Runs leave core.GuestConfig.Seed
	// at its default; a result does not depend on it, and the field stays
	// only because bench/ sets it.
	Jobs int

	// Cores caps the multicore scaling sweep (fig16) at the given guest
	// core count, rounded down to a power of two. 0 means the default
	// sweep (1, 2, 4 cores).
	Cores int

	// SimPoint switches the figures that opt in (the sweep-shaped figs
	// 10, 12, 13) to SimPoint-style sampled simulation: profile once per
	// config family on the Atomic model, then simulate only one
	// representative interval per phase on the detailed model and
	// extrapolate. Output stays byte-identical at any -j; the sampled
	// figures carry a note documenting the mode and its error bound.
	SimPoint bool

	// runner is the shared worker pool, created lazily from Jobs. RunMany
	// installs one runner across all its experiments so Jobs bounds the
	// whole harness, not each experiment separately.
	runner *Runner
	// pass plans the co-simulations of the experiments run together: one
	// per RunMany, or per Run called alone.
	pass *pass
}

// withRunner returns opt with its worker pool materialized, and a pass that
// plans what the experiments ids declare unless opt has one.
func (o Options) withRunner(ids ...string) Options {
	if o.runner == nil {
		o.runner = NewRunner(o.Jobs)
	}
	if o.pass == nil {
		o.pass = newPass(ids, o)
	}
	return o
}

// Row is one labeled series of values.
type Row struct {
	Label  string
	Values []float64
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	// Cols names Row values.
	Cols []string
	Rows []Row
	// Notes carries prose observations (the claims to compare with the
	// paper) and free-text renderings for the config tables.
	Notes []string
}

// Render formats the result as an aligned text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if len(r.Rows) > 0 {
		width := 26
		fmt.Fprintf(&b, "%-*s", width, "")
		for _, c := range r.Cols {
			fmt.Fprintf(&b, " %14s", c)
		}
		b.WriteString("\n")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%-*s", width, row.Label)
			for _, v := range row.Values {
				fmt.Fprintf(&b, " %14.4f", v)
			}
			b.WriteString("\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  # %s\n", n)
	}
	return b.String()
}

// A renderer draws one experiment from the outcomes of its declaration's
// cells, in declaration order (nil for an experiment that declares none).
type renderer func(opt Options, cells []*cellRun) (*Result, error)

// experiment is a registered declaration of the cells an experiment reads,
// nil for one that reads none, and the renderer that draws it.
type experiment struct {
	decl   *declaration
	render renderer
}

var (
	mu       sync.Mutex
	registry = map[string]experiment{}
)

// register adds an experiment: its declaration, which a pass plans before
// any experiment runs, and its renderer.
func register(id string, decl *declaration, render renderer) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = experiment{decl, render}
}

// IDs returns all experiment identifiers in presentation order.
func IDs() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(registry))
	//lint:deterministic keys are sorted before use
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id: the options' pass measures its
// declaration, its simulation runs fanning out on the worker pool (see
// Options.Jobs), and its renderer draws the outcomes.
func Run(id string, opt Options) (*Result, error) {
	mu.Lock()
	e, ok := registry[id]
	mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	opt = opt.withRunner(id)
	cells, err := opt.pass.measure(e.decl)
	if err != nil {
		return nil, err
	}
	return e.render(opt, cells)
}

// geomean returns the geometric mean of vs.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// pct converts a fraction to percent.
func pct(v float64) float64 { return 100 * v }
