package lint_test

import (
	"path/filepath"
	"testing"

	"gem5prof/internal/lint"
)

// TestSelfApplication is the acceptance bar of the suite: g5lint over this
// repository must be clean — all six analyzers. Every real violation has
// been fixed and every benign one carries a reasoned annotation; a
// regression in either direction fails here. The suppression audit is
// checked too: an annotation whose finding no longer fires is dead weight
// that would silently excuse a future, different bug at the same line. A
// package that does not load fails the test, so a tree that does not build
// cannot audit clean.
func TestSelfApplication(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	rep, err := lint.Check(filepath.Join("..", ".."), []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	for _, f := range rep.Findings {
		t.Errorf("finding: %s", f)
	}
	for _, e := range rep.Suppressions {
		if !e.Used {
			t.Errorf("stale annotation %s:%d (%s): %s", e.File, e.Line, e.Analyzer, e.Reason)
		}
	}
	if len(rep.Suppressions) != 14 {
		t.Errorf("the module carries %d annotations, want 14", len(rep.Suppressions))
	}
}
