package lint

import "testing"

func TestParseAnnotation(t *testing.T) {
	cases := []struct {
		text     string
		ok       bool
		analyzer string
		reason   string
	}{
		{"//lint:deterministic keys are sorted before use", true, "", "keys are sorted before use"},
		{"//lint:deterministic", true, "", ""},
		{"//lint:allow pastsched restore replays an absolute tick", true, "pastsched", "restore replays an absolute tick"},
		{"//lint:allow pastsched", true, "pastsched", ""},
		{"//lint:allow", true, "", ""},
		{"// lint:deterministic spaced prefix does not parse", false, "", ""},
		{"// plain comment", false, "", ""},
		{"//nolint:unrelated", false, "", ""},
	}
	for _, c := range cases {
		s, ok := parseAnnotation(c.text)
		if ok != c.ok || s.analyzer != c.analyzer || s.reason != c.reason {
			t.Errorf("parseAnnotation(%q) = {analyzer:%q reason:%q}, %v; want {analyzer:%q reason:%q}, %v",
				c.text, s.analyzer, s.reason, ok, c.analyzer, c.reason, c.ok)
		}
	}
}

func TestGoVersionFor(t *testing.T) {
	cases := map[string]string{
		"go1.24":       "go1.24",
		"go1.24.1":     "go1.24.1",
		"go1":          "go1",
		"":             "",
		"devel":        "",
		"go1.24-beta1": "",
	}
	for in, want := range cases {
		if got := goVersionFor(in); got != want {
			t.Errorf("goVersionFor(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAllAnalyzersNamed(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 7 {
		t.Errorf("expected 7 analyzers, have %d", len(seen))
	}
}
