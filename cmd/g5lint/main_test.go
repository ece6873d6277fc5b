package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const cleanSrc = `package demo

import "sort"

// Keys collects and sorts, under a live waiver.
func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	//lint:deterministic keys are sorted before use
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`

// g5lint runs one mode over a throw-away module named gem5prof (so its
// packages are in the analyzers' scope) holding the given files.
func g5lint(t *testing.T, files map[string]string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs go list over a temporary module")
	}
	dir := t.TempDir()
	write := func(name, src string) {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module gem5prof\n\ngo 1.22\n")
	for name, src := range files {
		write(name, src)
	}
	var out, errb bytes.Buffer
	code = run(dir, append(args, "./..."), &out, &errb)
	return code, out.String(), errb.String()
}

func TestCleanTree(t *testing.T) {
	files := map[string]string{"internal/demo/a.go": cleanSrc}
	if code, _, stderr := g5lint(t, files); code != 0 {
		t.Errorf("plain mode on a clean tree exited %d:\n%s", code, stderr)
	}
	if code, stdout, stderr := g5lint(t, files, "-json"); code != 0 || strings.TrimSpace(stdout) != "[]" {
		t.Errorf("-json on a clean tree: exit %d, stdout %q, stderr:\n%s", code, stdout, stderr)
	}
	code, stdout, stderr := g5lint(t, files, "-suppressions")
	if code != 0 || !strings.Contains(stdout, "1 suppressions, 0 stale") || !strings.Contains(stdout, "used  detmap") {
		t.Errorf("-suppressions on a clean tree: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestSeededFinding(t *testing.T) {
	files := map[string]string{"internal/demo/a.go": cleanSrc, "internal/demo/b.go": `package demo

func First(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}
`}
	code, stdout, stderr := g5lint(t, files, "-json")
	if code != 1 || strings.Count(stdout, `"analyzer"`) != 1 ||
		!strings.Contains(stdout, `"analyzer": "detmap"`) || !strings.Contains(stdout, `"line": 4`) {
		t.Errorf("-json with one seeded map range: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if code, _, stderr := g5lint(t, files); code != 1 || !strings.Contains(stderr, "b.go:4:") || !strings.Contains(stderr, "[g5lint/detmap]") {
		t.Errorf("plain mode with one seeded map range: exit %d, stderr:\n%s", code, stderr)
	}
}

func TestStaleSuppression(t *testing.T) {
	files := map[string]string{"internal/demo/a.go": cleanSrc, "internal/demo/b.go": `package demo

func Len(m map[string]int) int {
	//lint:allow detmap the loop this excused is gone
	return len(m)
}
`}
	code, stdout, stderr := g5lint(t, files, "-suppressions")
	if code != 1 || !strings.Contains(stdout, "STALE detmap") || !strings.Contains(stdout, "2 suppressions, 1 stale") {
		t.Errorf("-suppressions with a stale waiver: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestBrokenTreeFailsClosed: a package that does not parse reports no
// annotations and no findings, which must not read as a clean run in any
// mode.
func TestBrokenTreeFailsClosed(t *testing.T) {
	files := map[string]string{"internal/demo/a.go": cleanSrc, "internal/demo/b.go": "package demo\nfunc broken( {\n"}
	for _, args := range [][]string{{"-suppressions"}, {"-json"}, nil} {
		code, stdout, stderr := g5lint(t, files, args...)
		if code != 2 || !strings.Contains(stderr, "b.go:2:") {
			t.Errorf("%v on a tree that does not parse: exit %d, stdout:\n%s\nstderr:\n%s", args, code, stdout, stderr)
		}
	}
}
