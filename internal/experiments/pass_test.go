package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestPassSharesCells: in one pass the cells of one guest, binary and mode
// ride one co-simulation whatever their hosts, so a cell several figures ask
// for runs once — and every figure renders the bytes it renders alone.
// Under -simpoint, figs 10, 12 and 13 ask for 30 sampled cells on six guest
// and binary pairs (fig12's Xeon base-build cells are also fig10's, and
// fig13's 3.1 GHz cell is fig10's Timing base cell), all of one config
// family, so the six share one analysis; fig11 asks for 8 full cells on
// four. Figs. 2-6 render one Top-Down set: a pass holding all five runs its
// eight sessions and its three SPEC replays once.
func TestPassSharesCells(t *testing.T) {
	ids := []string{"fig10", "fig11", "fig12", "fig13"}
	opt := Options{Quick: true, Jobs: 2, SimPoint: true}
	alone := map[string]string{}
	for _, id := range ids {
		res, err := Run(id, opt)
		if err != nil {
			t.Fatalf("%s alone: %v", id, err)
		}
		alone[id] = res.Render()
	}

	opt = opt.withRunner(ids...)
	for oc := range RunMany(ids, opt) {
		if oc.Err != nil {
			t.Fatalf("%s: %v", oc.ID, oc.Err)
		}
		if got := oc.Res.Render(); got != alone[oc.ID] {
			t.Errorf("%s in one pass with %v:\n%s\nalone:\n%s", oc.ID, ids, got, alone[oc.ID])
		}
	}
	p := opt.pass
	cosims := map[*cosimRun]bool{}
	for _, d := range []*declaration{fig10Decl, fig11Decl, fig12Decl, fig13Decl} {
		for _, r := range p.decls[d] {
			cosims[r.cosim] = true
		}
	}
	if len(cosims) != 10 || p.started != 10 {
		t.Errorf("pass planned %d co-simulations and started %d; want 10, 10", len(cosims), p.started)
	}
	families := map[*family]int{}
	for cs := range cosims {
		if cs.sampled != nil {
			families[cs.sampled]++
		}
	}
	if len(families) != 1 || len(p.families) != 1 {
		t.Errorf("the sampled co-simulations rode %d analyses (%d in the pass), want 1", len(families), len(p.families))
	}
	for f, n := range families {
		if n != 6 || f.a == nil {
			t.Errorf("an analysis served %d sampled co-simulations (computed: %v), want 6", n, f.a != nil)
		}
	}
	// fig10 is CPU-major over the three backings, fig12 host-major over
	// (CPU, build), fig13 over the clocks.
	for _, twins := range [][2]*cellRun{
		{p.decls[fig10Decl][0], p.decls[fig12Decl][0]}, // Atomic, Xeon, base
		{p.decls[fig10Decl][9], p.decls[fig12Decl][2]}, // O3, Xeon, base
		{p.decls[fig10Decl][3], p.decls[fig13Decl][4]}, // Timing, Xeon, 3.1 GHz
	} {
		if twins[0].cosim != twins[1].cosim || twins[0].secs != twins[1].secs {
			t.Errorf("a cell two figures ask for rode two co-simulations or read differently")
		}
	}

	topdown := []string{"fig02", "fig03", "fig04", "fig05", "fig06"}
	opt = Options{Quick: true, Jobs: 2}.withRunner(topdown...)
	for oc := range RunMany(topdown, opt) {
		if oc.Err != nil {
			t.Fatalf("%s: %v", oc.ID, oc.Err)
		}
		if oc.ID != "fig02" && oc.ID != "fig04" {
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", oc.ID+"_quick.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := oc.Res.Render(); got != string(want) {
			t.Errorf("%s in one pass with %v:\n%s\nalone:\n%s", oc.ID, topdown, got, want)
		}
	}
	p = opt.pass
	runs, replays := map[*cosimRun]bool{}, 0
	for _, r := range p.decls[topdownDecl] {
		if !runs[r.cosim] && r.cosim.replay != nil {
			replays++
		}
		runs[r.cosim] = true
	}
	if len(p.decls) != 1 || len(runs) != 11 || replays != 3 || p.started != 11 {
		t.Errorf("Figs. 2-6 planned %d declarations and %d runs, %d of them replays, and started %d; want 1, 11, 3, 11",
			len(p.decls), len(runs), replays, p.started)
	}
}
