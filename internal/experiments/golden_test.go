package experiments

// Determinism witness for the hot-path data-structure work: the
// quick-mode fig02 (Top-Down breakdown), fig04, fig07, and fig08
// (miss-rate table) reports must stay byte-identical to their captured
// fixtures. Any modeled outcome drifting — one extra miss, one different
// victim — moves these tables.
//
// To regenerate after an *intentional* model change:
//
//	go test ./internal/experiments -run TestGoldenReports -update-golden

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden report fixtures")

func TestGoldenReports(t *testing.T) {
	for _, id := range []string{"fig02", "fig04", "fig07", "fig08", "fig10", "fig13", "fig16"} {
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, Options{Quick: true, Jobs: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Render()
			path := filepath.Join("testdata", id+"_quick.golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s quick report drifted from golden fixture:\n--- got ---\n%s\n--- want ---\n%s",
					id, got, want)
			}
		})
	}
}
