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
// own minimal analogue of the go/analysis Analyzer/Pass contract, a loader
// that type-checks packages against the export data `go list -export`
// builds (see load.go), and an analysistest-style fixture loader (see the
// linttest subpackage).
//
// Analyzers see production code only: a package is loaded from its
// non-test files, so *_test.go files are never parsed.
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
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite could migrate to
// the real framework wholesale if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //lint:allow annotations.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run performs the analysis on one package.
	Run func(*Pass) error
}

// Finding is one diagnostic, positioned and attributed to its analyzer.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders f as a vet-style line.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [g5lint/%s]", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// AuditEntry is one annotation with whether it waived a finding; one that
// waived nothing is stale: the code it excused no longer trips the
// analyzer, so the excuse (and its reason) is rot.
type AuditEntry struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"` // "detmap" for //lint:deterministic
	Reason   string `json:"reason"`
	Used     bool   `json:"used"`
}

// Package is one parsed and type-checked package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
}

// sizes is gc/amd64 regardless of host, so size contracts (e.g. the
// 32-byte trace record) are checked the same everywhere.
var sizes = types.SizesFor("gc", "amd64")

// NewPackage parses the named files and type-checks them as package path,
// resolving imports through imp.
func NewPackage(fset *token.FileSet, path string, filenames []string, imp types.Importer, goVersion string) (*Package, error) {
	files := make([]*ast.File, len(filenames))
	for i, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tc := &types.Config{Importer: imp, Sizes: sizes, GoVersion: goVersion}
	pkg, err := tc.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// Run applies analyzers to pkg. It returns their findings sorted by
// position, and every annotation in pkg with whether it waived one.
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, []AuditEntry, error) {
	var found []Finding
	used := make(map[fileLine]bool)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types,
			TypesInfo: pkg.Info, Sizes: sizes, found: &found, used: used}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: analyzer %s: %v", pkg.Types.Path(), a.Name, err)
		}
	}
	sortFindings(found)
	return found, auditEntries(pkg.Fset, pkg.Files, used), nil
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
}

// Pass carries one package's parsed and type-checked representation
// through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // the package's non-test files
	Pkg       *types.Package
	TypesInfo *types.Info
	Sizes     types.Sizes // gc/amd64 on every host (see sizes)

	found *[]Finding        // every non-suppressed finding of the package
	used  map[fileLine]bool // annotations that waived a finding, across the package's passes

	suppressions map[string][]suppression // filename -> entries, lazily built
}

type fileLine struct {
	file string
	line int
}

// suppression is one parsed //lint: annotation.
type suppression struct {
	line     int
	analyzer string // "" means detmap (//lint:deterministic)
	reason   string
}

// auditEntries lists every annotation in files with whether it is in
// used, sorted by file then line.
func auditEntries(fset *token.FileSet, files []*ast.File, used map[fileLine]bool) []AuditEntry {
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
					Used:     used[fileLine{posn.Filename, posn.Line}],
				})
			}
		}
	}
	sortAudit(out)
	return out
}

func sortAudit(es []AuditEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].File != es[j].File {
			return es[i].File < es[j].File
		}
		return es[i].Line < es[j].Line
	})
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
	p.report(pos, fmt.Sprintf(format, args...))
}

func (p *Pass) report(pos token.Pos, msg string) {
	posn := p.Fset.Position(pos)
	*p.found = append(*p.found, Finding{File: posn.Filename, Line: posn.Line, Col: posn.Column,
		Analyzer: p.Analyzer.Name, Message: msg})
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
			p.used[fileLine{posn.Filename, s.line}] = true
			return true
		case "":
			if deterministic && p.Analyzer.Name == "detmap" {
				p.used[fileLine{posn.Filename, s.line}] = true
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
					p.report(c.Pos(), "lint annotation without a reason; write //lint:"+annotationVerb(s)+" <why this is safe>")
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

// inspect walks every node of every file, calling fn; fn returning false
// prunes the subtree.
func inspect(p *Pass, fn func(ast.Node) bool) {
	for _, f := range p.Files {
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
