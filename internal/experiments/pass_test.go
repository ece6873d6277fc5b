package experiments

import (
	"errors"
	"testing"
)

// TestEveryAskedCellIsDeclared: every declaration an experiment asks the
// pass for is one it registered, in full and sampled mode, so a pass plans
// the whole of what it will run before anything runs. A dry pass plans what
// it is asked for and runs nothing.
func TestEveryAskedCellIsDeclared(t *testing.T) {
	defer ResetCaches()
	for _, simPoint := range []bool{false, true} {
		for _, id := range IDs() {
			ResetCaches() // a cached Top-Down set would ask for nothing
			opt := Options{Quick: true, Jobs: 2, SimPoint: simPoint}.withRunner(id)
			opt.pass.dry = true
			if _, err := Run(id, opt); err != nil && !errors.Is(err, errDry) {
				t.Errorf("%s (simpoint %v): %v", id, simPoint, err)
			}
			if n := opt.pass.unplanned; n != 0 {
				t.Errorf("%s (simpoint %v) asked for %d declarations it did not register", id, simPoint, n)
			}
		}
	}
}

// TestPassSharesCells: in one pass the cells of one guest, binary and mode
// ride one co-simulation whatever their hosts, so a cell several figures ask
// for runs once — and every figure renders the bytes it renders alone.
// Under -simpoint, figs 10, 12 and 13 ask for 30 sampled cells on six guest
// and binary pairs (fig12's Xeon base-build cells are also fig10's, and
// fig13's 3.1 GHz cell is fig10's Timing base cell); fig11 asks for 8 full
// cells on four.
func TestPassSharesCells(t *testing.T) {
	ids := []string{"fig10", "fig11", "fig12", "fig13"}
	opt := Options{Quick: true, Jobs: 2, SimPoint: true}
	defer ResetCaches()
	alone := map[string]string{}
	for _, id := range ids {
		ResetCaches()
		res, err := Run(id, opt)
		if err != nil {
			t.Fatalf("%s alone: %v", id, err)
		}
		alone[id] = res.Render()
	}

	ResetCaches()
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
	if len(cosims) != 10 || p.started != 10 || p.unplanned != 0 {
		t.Errorf("pass planned %d co-simulations, started %d, asked for %d undeclared; want 10, 10, 0",
			len(cosims), p.started, p.unplanned)
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
}
