//go:build race

package core_test

// raceEnabled reports a build with the race detector, whose instrumentation
// allocates: allocation bounds hold for the plain build only.
const raceEnabled = true
