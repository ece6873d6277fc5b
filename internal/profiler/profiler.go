// Package profiler provides the function-level CPU-time profiler used for
// the paper's hot-function analysis (Fig. 15): per-function exclusive host
// cycles, call counts, top-N tables, and the cumulative distribution of the
// hottest functions.
package profiler

import (
	"fmt"
	"sort"
	"strings"

	"gem5prof/internal/sim"
)

// CycleSource exposes the host machine's running cycle count.
type CycleSource interface {
	Cycles() float64
}

// NameSource resolves function IDs to names (implemented by
// hostmodel.CodeModel).
type NameSource interface {
	FuncName(fn sim.FuncID) string
}

type frame struct {
	fn       sim.FuncID
	enter    float64
	children float64
}

// Profiler accumulates exclusive cycles per function. It implements
// hostmodel.Profiler. Function IDs are dense from 0, so the per-function
// account is two slices indexed by ID.
type Profiler struct {
	src   CycleSource
	names NameSource

	stack []frame
	self  []float64
	calls []uint64
}

// New builds a profiler reading cycles from src.
func New(src CycleSource, names NameSource) *Profiler {
	return &Profiler{src: src, names: names}
}

// Enter implements hostmodel.Profiler.
func (p *Profiler) Enter(fn sim.FuncID) {
	if n := int(fn) + 1 - len(p.calls); n > 0 {
		p.calls = append(p.calls, make([]uint64, n)...)
		p.self = append(p.self, make([]float64, n)...)
	}
	p.calls[fn]++
	p.stack = append(p.stack, frame{fn: fn, enter: p.src.Cycles()})
}

// Leave implements hostmodel.Profiler.
func (p *Profiler) Leave(fn sim.FuncID) {
	n := len(p.stack)
	if n == 0 {
		return
	}
	f := p.stack[n-1]
	p.stack = p.stack[:n-1]
	if f.fn != fn {
		// Unbalanced (should not happen); drop the frame.
		return
	}
	total := p.src.Cycles() - f.enter
	self := total - f.children
	if self < 0 {
		self = 0
	}
	p.self[fn] += self
	if n >= 2 {
		p.stack[n-2].children += total
	}
}

// Entry is one row of the hot-function table.
type Entry struct {
	Fn     sim.FuncID
	Name   string
	Cycles float64
	Calls  uint64
	Frac   float64 // share of all attributed cycles
}

// TotalCycles returns the sum of attributed exclusive cycles, added in
// ascending function-ID order: float64 addition does not commute, so the
// order is part of the result (and of every Frac).
func (p *Profiler) TotalCycles() float64 {
	var t float64
	for _, cyc := range p.self {
		t += cyc
	}
	return t
}

// Top returns the n hottest functions by exclusive cycles.
func (p *Profiler) Top(n int) []Entry {
	total := p.TotalCycles()
	if total == 0 {
		total = 1
	}
	out := make([]Entry, 0, len(p.self))
	for i, cyc := range p.self {
		if p.calls[i] == 0 {
			continue
		}
		fn := sim.FuncID(i)
		name := fmt.Sprintf("fn%d", fn)
		if p.names != nil {
			name = p.names.FuncName(fn)
		}
		out = append(out, Entry{Fn: fn, Name: name, Cycles: cyc, Calls: p.calls[fn], Frac: cyc / total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Fn < out[j].Fn
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// CDF returns the cumulative CPU-time share of the n hottest functions:
// element i is the share of the top i+1 functions (Fig. 15).
func (p *Profiler) CDF(n int) []float64 {
	top := p.Top(n)
	out := make([]float64, len(top))
	sum := 0.0
	for i, e := range top {
		sum += e.Frac
		out[i] = sum
	}
	return out
}

// Render prints a perf-report-style table of the top n functions.
func (p *Profiler) Render(n int) string {
	var b strings.Builder
	b.WriteString("  %CPU      cycles      calls  function\n")
	for _, e := range p.Top(n) {
		fmt.Fprintf(&b, "%6.2f%% %11.0f %10d  %s\n", 100*e.Frac, e.Cycles, e.Calls, e.Name)
	}
	return b.String()
}
