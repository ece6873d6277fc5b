package gem5prof_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designHeading is a numbered section of DESIGN.md.
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. (.*)$`)
	// designCitation is "DESIGN §N" or "DESIGN.md §N", and the sections a
	// list goes on to name: "DESIGN §21, §22 and §23".
	designCitation = regexp.MustCompile(`DESIGN(?:\.md)? §\d+(?:(?:,| and| or) §\d+)*`)
	sectionNumber  = regexp.MustCompile(`§(\d+)`)
	// commentBreak is a Go comment's line break, which a citation may
	// straddle.
	commentBreak = regexp.MustCompile(`\n\s*//\s*`)
)

// TestDesignCitationsResolve: every section of DESIGN.md that a Go comment,
// README.md or EXPERIMENTS.md cites exists and is not a removal notice (a
// heading marked "(removed)"), so a reader who follows a citation finds
// what it promises.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = m[2]
	}
	check := func(path, text string) {
		for _, cite := range designCitation.FindAllString(text, -1) {
			for _, n := range sectionNumber.FindAllStringSubmatch(cite, -1) {
				switch title, ok := sections[n[1]]; {
				case !ok:
					t.Errorf("%s: %q cites a section DESIGN.md does not have", path, cite)
				case strings.Contains(title, "(removed)"):
					t.Errorf("%s: %q cites §%s, which is only a removal notice (%q)", path, cite, n[1], title)
				}
			}
		}
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		check(doc, strings.Join(strings.Fields(string(b)), " "))
	}
	files := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, the benchmark's build directory
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		check(path, commentBreak.ReplaceAllString(string(b), " "))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go file found")
	}
}
