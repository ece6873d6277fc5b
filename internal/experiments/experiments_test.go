package experiments

import (
	"strings"
	"testing"
)

var quickOpt = Options{Quick: true}

func TestIDsComplete(t *testing.T) {
	want := []string{
		"ablations",
		"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
		"fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "table1", "table2",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("ids = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("fig99", quickOpt); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTables(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		res, err := Run(id, quickOpt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Notes) == 0 {
			t.Fatalf("%s empty", id)
		}
		if !strings.Contains(res.Render(), "===") {
			t.Fatal("render malformed")
		}
	}
}

// TestTopdownFigures renders Figs. 2-6 in one pass, which measures their
// shared set once, and checks the paper's qualitative claims hold in quick
// mode.
func TestTopdownFigures(t *testing.T) {
	figs := map[string]*Result{}
	for oc := range RunMany([]string{"fig02", "fig03", "fig04", "fig05", "fig06"}, quickOpt) {
		if oc.Err != nil {
			t.Fatalf("%s: %v", oc.ID, oc.Err)
		}
		figs[oc.ID] = oc.Res
	}
	f2 := figs["fig02"]
	if len(f2.Rows) != 11 {
		t.Fatalf("fig02 rows = %d", len(f2.Rows))
	}
	// Every gem5 config: front-end bound above back-end bound.
	for _, row := range f2.Rows[:8] {
		fe, be := row.Values[1], row.Values[3]
		if fe <= be {
			t.Errorf("%s: FE %.1f <= BE %.1f", row.Label, fe, be)
		}
	}
	// mcf: heavily back-end bound, lowest retiring.
	mcf := f2.Rows[10]
	if mcf.Values[3] < 40 {
		t.Errorf("mcf BE = %.1f, want heavy", mcf.Values[3])
	}

	// gem5 DSB coverage below x264's.
	f6 := figs["fig06"]
	var gem5Max float64
	for _, row := range f6.Rows[:8] {
		if row.Values[0] > gem5Max {
			gem5Max = row.Values[0]
		}
	}
	x264 := f6.Rows[8].Values[0]
	if gem5Max >= x264 {
		t.Errorf("gem5 DSB coverage (max %.1f) should be below x264's (%.1f)", gem5Max, x264)
	}

	// Unknown branches grow with CPU detail (O3 vs Atomic, PARSEC rows).
	byLabel := map[string]Row{}
	for _, r := range figs["fig04"].Rows {
		byLabel[r.Label] = r
	}
	if byLabel["O3_PARSEC"].Values[4] <= byLabel["ATOMIC_PARSEC"].Values[4] {
		t.Error("unknown-branch share should grow with model detail")
	}

	// MITE dominates gem5's bandwidth-bound cycles.
	for _, row := range figs["fig05"].Rows[:8] {
		if row.Values[2] < 50 {
			t.Errorf("%s MITE share %.0f%%, want dominant", row.Label, row.Values[2])
		}
	}
}

func TestFig13FrequencyScaling(t *testing.T) {
	res, err := Run("fig13", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Normalized time must decrease monotonically with frequency and the
	// 1.2GHz point must be roughly linear (between 2x and 2.6x).
	prev := res.Rows[0].Values[0]
	for _, row := range res.Rows[1:] {
		if row.Values[0] >= prev {
			t.Fatalf("time not decreasing with frequency: %+v", res.Rows)
		}
		prev = row.Values[0]
	}
	slow := res.Rows[0].Values[0]
	if slow < 1.8 || slow > 2.7 {
		t.Fatalf("1.2GHz slowdown %.2fx outside the near-linear band", slow)
	}
}

func TestFig10HugePages(t *testing.T) {
	res, err := Run("fig10", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Huge pages help the detailed models.
	o3 := res.Rows[3]
	if o3.Values[0] <= 0 && o3.Values[1] <= 0 {
		t.Fatalf("huge pages should help O3: %+v", o3)
	}
}

func TestFig15Profile(t *testing.T) {
	res, err := Run("fig15", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Function counts grow with CPU model detail.
	prev := 0.0
	for _, row := range res.Rows {
		called := row.Values[3]
		if called <= prev {
			t.Fatalf("functions-called not increasing: %+v", res.Rows)
		}
		prev = called
		// CDF sanity: top50 >= top10 >= hottest.
		if !(row.Values[2] >= row.Values[1] && row.Values[1] >= row.Values[0]) {
			t.Fatalf("CDF not monotone: %+v", row)
		}
	}
}

func TestAblationsExperiment(t *testing.T) {
	res, err := Run("ablations", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byLabel := map[string]float64{}
	for _, r := range res.Rows {
		byLabel[r.Label] = r.Values[0]
	}
	if byLabel["baseline"] != 1 {
		t.Fatal("baseline not normalized")
	}
	if byLabel["A2 non-VIPT 128KB L1I"] >= 1 {
		t.Fatalf("a big L1I should be faster: %v", byLabel)
	}
	if byLabel["A3 no MLP overlap"] <= 1 {
		t.Fatalf("removing MLP overlap should be slower: %v", byLabel)
	}
	if a4 := byLabel["A4 packed layout"]; a4 < 0.90 || a4 > 1.05 {
		t.Fatalf("packed layout should be a small effect on total time: %v", byLabel)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4}); g != 2 {
		t.Fatalf("geomean = %v", g)
	}
	if geomean(nil) != 0 || geomean([]float64{0, 1}) != 0 {
		t.Fatal("degenerate geomean wrong")
	}
}
