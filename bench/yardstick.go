package main

import "time"

// The yardstick is a fixed piece of work that belongs to the benchmark and
// not to the program under test: a branchy integer loop that stays in the
// first-level caches. The sandboxes this benchmark runs in share their cores,
// and their speed moves by tens of percent for minutes at a time, identical
// work included; measured on such a host (twenty 12-second windows), the
// quartile distance of an operation's raw time was 12-30% of its median, and
// of the same time divided by the yardstick's, taken in the same window,
// 3-11%. So a run times the yardstick between operations and reports its
// times as seconds on a host that runs the yardstick in yardstickNominal:
// raw seconds divided by (mean yardstick time / yardstickNominal). The raw
// times are on the detail line.
const (
	yardstickIters   = 1_500_000
	yardstickNominal = 0.0160 // seconds per sample on the recording host when it is quiet
	yardstickEvery   = 300 * time.Millisecond
)

var yardstickSink uint64

// yardstick runs the loop once and returns the seconds it took.
func yardstick() float64 {
	t0 := time.Now()
	var x uint64 = 88172645463325252
	var acc uint64
	var small [512]uint64
	for i := 0; i < yardstickIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch x & 7 {
		case 0:
			acc += x >> 3
		case 1:
			acc ^= x
		case 2:
			acc -= x >> 5
		case 3:
			acc += small[x>>55]
		case 4:
			small[x>>55] = acc
		case 5:
			acc = acc<<1 | acc>>63
		case 6:
			acc *= 3
		default:
			acc++
		}
	}
	yardstickSink += acc
	return time.Since(t0).Seconds()
}

// hostSpeed collects yardstick samples over a run, at most one per
// yardstickEvery, so that they are spread evenly over its wall-clock time
// whatever the length of an operation.
type hostSpeed struct {
	samples []float64
	last    time.Time
}

// sample times the yardstick if the last sample is old enough.
func (h *hostSpeed) sample() {
	if !h.last.IsZero() && time.Since(h.last) < yardstickEvery {
		return
	}
	h.samples = append(h.samples, yardstick())
	h.last = time.Now()
}

// slowdown is how much slower than nominal the host ran the yardstick, as a
// factor: raw seconds divided by it are seconds on the nominal host.
func (h *hostSpeed) slowdown() float64 {
	return mean(h.samples) / yardstickNominal
}
