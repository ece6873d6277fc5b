//go:build !race

package core_test

// raceEnabled reports a build with the race detector (race_test.go).
const raceEnabled = false
