package experiments

import (
	"strings"

	"gem5prof/internal/platform"
)

// runTable1 renders Table I from the FireSim host model's parameters.
func runTable1(Options, []*cellRun) (*Result, error) {
	return &Result{
		ID:    "table1",
		Title: "Base Hardware Configuration on FireSim",
		Notes: strings.Split(strings.TrimRight(platform.TableI(), "\n"), "\n"),
	}, nil
}

// runTable2 renders Table II from the three platform models.
func runTable2(Options, []*cellRun) (*Result, error) {
	return &Result{
		ID:    "table2",
		Title: "Evaluation platforms",
		Notes: strings.Split(strings.TrimRight(platform.TableII(), "\n"), "\n"),
	}, nil
}
