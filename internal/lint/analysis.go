// Package lint is g5lint: a suite of static analyzers encoding this
// repository's determinism and simulator contracts, so that the classes of
// bugs the dynamic layers (differential tests, conformance fuzzing,
// stats-invariant walking) keep catching at runtime — map-iteration-order
// leaks, wall-clock/global-rand seepage, events scheduled into the past,
// torn atomics, dead stats, Sink/record-format drift — are caught at
// compile time instead.
//
// The package deliberately depends only on the standard library (go/ast,
// go/types): golang.org/x/tools is not vendored here, so it provides its
// own minimal analogue of the go/analysis Analyzer/Pass contract plus a
// driver speaking the `go vet -vettool` unitchecker protocol (see
// unitchecker.go) and an analysistest-style fixture loader (see the
// linttest subpackage).
//
// Analyzers report on production code only: files named *_test.go are
// parsed and type-checked (the package would not compile without them) but
// never walked for diagnostics.
//
// Suppression. A finding can be waived with a comment on the offending
// line or the line directly above it:
//
//	//lint:deterministic <reason>   waives detmap (the loop provably
//	                                commutes or its output is sorted);
//	                                refused on a loop that sums floats
//	//lint:allow <analyzer> <reason>  waives any named analyzer
//
// Both forms require a non-empty reason; an annotation without one is
// itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite could migrate to
// the real framework wholesale if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow annotations.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run performs the analysis on one package.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's parsed and type-checked representation
// through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // every file of the unit, tests included
	Pkg       *types.Package
	TypesInfo *types.Info
	// Sizes is fixed to gc/amd64 regardless of host so size contracts
	// (e.g. the 32-byte trace record) are checked deterministically.
	Sizes types.Sizes
	// Report receives every non-suppressed diagnostic.
	Report func(Diagnostic)
	// Audit, when non-nil, collects which suppression annotations
	// actually fired (see SuppressionAudit). Shared across the analyzers
	// of one unit so -suppressions can report stale entries.
	Audit *SuppressionAudit

	suppressions map[string][]suppression // filename -> entries, lazily built
}

// suppression is one parsed //lint: annotation.
type suppression struct {
	line     int
	analyzer string // "" means detmap (//lint:deterministic)
	reason   string
}

// SuppressionAudit records, across every analyzer of one unit, which
// //lint: annotations suppressed at least one diagnostic. Annotations
// that never fire are stale: the code they excused no longer trips the
// analyzer, so the excuse (and its reason) is rot.
type SuppressionAudit struct {
	// Used maps filename -> annotation line -> true once any analyzer
	// was suppressed by the annotation on that line.
	Used map[string]map[int]bool
}

// NewSuppressionAudit returns an empty audit.
func NewSuppressionAudit() *SuppressionAudit {
	return &SuppressionAudit{Used: make(map[string]map[int]bool)}
}

func (a *SuppressionAudit) mark(file string, line int) {
	if a == nil {
		return
	}
	m := a.Used[file]
	if m == nil {
		m = make(map[int]bool)
		a.Used[file] = m
	}
	m[line] = true
}

// AuditEntry is one annotation with its fired/stale status, as reported
// by CollectSuppressions.
type AuditEntry struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"` // "detmap" for //lint:deterministic
	Reason   string `json:"reason"`
	Used     bool   `json:"used"`
}

// CollectSuppressions lists every annotation in the files with whether it
// suppressed anything in this audit, sorted by file then line. fset must
// be the FileSet the files were parsed with.
func (a *SuppressionAudit) CollectSuppressions(fset *token.FileSet, files []*ast.File) []AuditEntry {
	var out []AuditEntry
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s, ok := parseAnnotation(c.Text)
				if !ok || s.reason == "" {
					continue
				}
				posn := fset.Position(c.Pos())
				name := s.analyzer
				if name == "" {
					name = "detmap"
				}
				out = append(out, AuditEntry{
					File:     posn.Filename,
					Line:     posn.Line,
					Analyzer: name,
					Reason:   s.reason,
					Used:     a.Used[posn.Filename][posn.Line],
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// SourceFiles returns the files analyzers should walk: every file of the
// package except *_test.go files.
func (p *Pass) SourceFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		name := p.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Reportf reports a finding at pos unless a suppression annotation covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportf(pos, true, format, args...)
}

// reportf is Reportf with the //lint:deterministic shorthand honoured or
// not. A finding that says the flagged loop does not commute passes false:
// the shorthand claims that it does, so it is refused there (and audits
// stale) and only //lint:allow waives the finding.
func (p *Pass) reportf(pos token.Pos, deterministic bool, format string, args ...any) {
	if p.suppressed(pos, deterministic) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// suppressed reports whether a //lint: annotation on the diagnostic's line
// or the line above waives this analyzer there. deterministic says whether
// the //lint:deterministic shorthand counts.
func (p *Pass) suppressed(pos token.Pos, deterministic bool) bool {
	if p.suppressions == nil {
		p.buildSuppressions()
	}
	posn := p.Fset.Position(pos)
	for _, s := range p.suppressions[posn.Filename] {
		if s.line != posn.Line && s.line != posn.Line-1 {
			continue
		}
		switch s.analyzer {
		case p.Analyzer.Name:
			p.Audit.mark(posn.Filename, s.line)
			return true
		case "":
			if deterministic && p.Analyzer.Name == "detmap" {
				p.Audit.mark(posn.Filename, s.line)
				return true
			}
		}
	}
	return false
}

func (p *Pass) buildSuppressions() {
	p.suppressions = make(map[string][]suppression)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s, ok := parseAnnotation(c.Text)
				if !ok {
					continue
				}
				posn := p.Fset.Position(c.Pos())
				s.line = posn.Line
				if s.reason == "" {
					// A bare annotation documents nothing; make the
					// missing reason itself a finding (not suppressible).
					p.Report(Diagnostic{Pos: c.Pos(),
						Message: "lint annotation without a reason; write //lint:" + annotationVerb(s) + " <why this is safe>"})
					continue
				}
				p.suppressions[posn.Filename] = append(p.suppressions[posn.Filename], s)
			}
		}
	}
}

func annotationVerb(s suppression) string {
	if s.analyzer == "" {
		return "deterministic"
	}
	return "allow " + s.analyzer
}

// parseAnnotation recognizes //lint:deterministic and //lint:allow forms.
func parseAnnotation(text string) (suppression, bool) {
	body, ok := strings.CutPrefix(text, "//lint:")
	if !ok {
		return suppression{}, false
	}
	if rest, ok := strings.CutPrefix(body, "deterministic"); ok {
		return suppression{reason: strings.TrimSpace(rest)}, true
	}
	if rest, ok := strings.CutPrefix(body, "allow"); ok {
		fields := strings.Fields(rest)
		s := suppression{}
		if len(fields) > 0 {
			s.analyzer = fields[0]
			s.reason = strings.Join(fields[1:], " ")
		}
		return s, true
	}
	return suppression{}, false
}

// inspect walks every node of every non-test file, calling fn; fn
// returning false prunes the subtree.
func inspect(p *Pass, fn func(ast.Node) bool) {
	for _, f := range p.SourceFiles() {
		ast.Inspect(f, fn)
	}
}

// pkgScope reports whether the package under analysis belongs to this
// module's determinism-checked set: everything under gem5prof/ except the
// linter itself. Fixture packages used by linttest mimic these paths.
func pkgScope(p *Pass) bool {
	path := p.Pkg.Path()
	if path == "gem5prof" {
		return true
	}
	if !strings.HasPrefix(path, "gem5prof/") {
		return false
	}
	return !strings.HasPrefix(path, "gem5prof/internal/lint") &&
		!strings.HasPrefix(path, "gem5prof/cmd/g5lint")
}

// simScope reports whether the package is part of the simulator core, where
// host entropy is forbidden outright (nowallclock): variation and time
// come from the config and sim.Tick.
func simScope(p *Pass) bool {
	path := p.Pkg.Path()
	const pre = "gem5prof/internal/"
	if !strings.HasPrefix(path, pre) {
		return false
	}
	head, _, _ := strings.Cut(path[len(pre):], "/")
	switch head {
	case "lint":
		return false
	}
	return true
}

// typeIsMap reports whether t's core type is a map.
func typeIsMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// namedType returns t's *types.Named after stripping pointers, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isPkgFunc reports whether call is a call of the package-level function
// pkgPath.name (e.g. "time".Now).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isMethod reports whether fn has a receiver.
func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// calleeFunc resolves the called function object, or nil (e.g. for a call
// of a function value or a type conversion).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
