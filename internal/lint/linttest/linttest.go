// Package linttest is a minimal analogue of
// golang.org/x/tools/go/analysis/analysistest (which is not importable
// here): it loads fixture packages from testdata/src/<importpath>, runs
// one lint.Analyzer over each through lint.Run, and compares the findings
// against `// want "regexp"` comments in the fixture sources.
//
// Expectations. A comment of the form
//
//	// want "regexp" `another regexp`
//
// demands one finding per quoted pattern on the comment's own line. A
// signed offset applies the expectation to a nearby line instead:
//
//	// want+1 "lint annotation without a reason"
//
// is satisfied by a finding on the next line (needed when the flagged
// line is itself a comment, which cannot carry a second comment). A
// fixture package containing no want comments asserts the analyzer stays
// silent on it.
//
// Imports inside fixtures resolve against testdata/src first (so fixtures
// can share stub packages like gem5prof/internal/sim), then against the
// standard library, type-checked from GOROOT source — no network, no
// export-data installation required.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gem5prof/internal/lint"
)

// Run loads each fixture package rooted at testdata/src/<path> (relative
// to the calling test's working directory), applies the analyzer, and
// reports every mismatch between actual findings and want comments as a
// test error.
func Run(t *testing.T, a *lint.Analyzer, paths ...string) {
	t.Helper()
	l := newLoader(t)
	for _, path := range paths {
		pkg, err := l.load(path)
		if err != nil {
			t.Fatalf("%s: load fixture: %v", path, err)
		}
		found, _, err := lint.Run(pkg, []*lint.Analyzer{a})
		if err != nil {
			t.Fatal(err)
		}
		checkFindings(t, pkg, found)
	}
}

// loader resolves fixture and stdlib imports, memoized, over one FileSet.
type loader struct {
	fset *token.FileSet
	root string // testdata/src
	pkgs map[string]*lint.Package
	std  types.Importer
}

func newLoader(t *testing.T) *loader {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		root: root,
		pkgs: make(map[string]*lint.Package),
		std:  importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer over the fixture tree with a stdlib
// fallback, so fixture packages can import both stubs and real packages.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if st, err := os.Stat(filepath.Join(l.root, path)); err == nil && st.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one fixture package from its non-test files.
func (l *loader) load(path string) (*lint.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	p, err := lint.NewPackage(l.fset, path, names, l, "")
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// checkFindings diffs an analyzer's findings against the want comments.
func checkFindings(t *testing.T, p *lint.Package, found []lint.Finding) {
	t.Helper()
	exps := expectations(t, p.Fset, p.Files)
	for _, f := range found {
		matched := false
		for _, e := range exps {
			if !e.used && e.file == f.File && e.line == f.Line && e.re.MatchString(f.Message) {
				e.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d:%d: unexpected finding: %s", f.File, f.Line, f.Col, f.Message)
		}
	}
	for _, e := range exps {
		if !e.used {
			t.Errorf("%s:%d: no finding matching %q", e.file, e.line, e.text)
		}
	}
}

// expect is one want pattern pinned to a file and line.
type expect struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	used bool
}

var wantRe = regexp.MustCompile(`^//\s*want([+-][0-9]+)?\s+(.*)$`)
var patRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectations collects every want comment of the package, sorted by
// position so matching is deterministic.
func expectations(t *testing.T, fset *token.FileSet, files []*ast.File) []*expect {
	t.Helper()
	var out []*expect
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				offset := 0
				if m[1] != "" {
					offset, _ = strconv.Atoi(m[1])
				}
				posn := fset.Position(c.Pos())
				pats := patRe.FindAllString(m[2], -1)
				if len(pats) == 0 {
					t.Fatalf("%s: want comment has no quoted pattern: %s", posn, c.Text)
				}
				for _, raw := range pats {
					pat, err := strconv.Unquote(raw)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", posn, raw, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", posn, pat, err)
					}
					out = append(out, &expect{
						file: posn.Filename,
						line: posn.Line + offset,
						re:   re,
						text: pat,
					})
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}
