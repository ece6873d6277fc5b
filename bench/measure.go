package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the contract with the driver.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is printed on the line before the result, for people and for
// -selfcheck: the sample behind each median and the output digest, by which
// two commits compare exactly.
type detail struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Ops         int      `json:"ops"`
	StatsDigest string   `json:"stats_digest"`
	Errors      []string `json:"errors,omitempty"`
	// Quartiles holds q1, median and q3 of each metric over the operations,
	// the times among them raw, as the clock read them.
	Quartiles map[string][3]float64 `json:"quartiles,omitempty"`
	// HostSlowdown is the factor the reported times were divided by: the
	// yardstick's mean time over the run, over its nominal.
	HostSlowdown float64           `json:"host_slowdown,omitempty"`
	Counts       map[string]uint64 `json:"counts,omitempty"` // exact work per op
	SpanFile     string            `json:"span_file,omitempty"`
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// minOps is the fewest timed operations a run makes, however short
// -seconds is.
const minOps = 3

func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// resetPeakRSS sets the kernel's high-water mark of the resident set back to
// the current resident set, so that the next peakRSSMB is the peak of one
// operation. The peak of a whole run is the maximum of a quantity that
// garbage-collection timing moves by a fifth from run to run; the median of
// the per-operation peaks is steady. Where the kernel refuses the write the
// mark is left to accumulate, and the median is still a peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the high-water mark of the resident set in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setUp generates the workload's inputs from the seed and runs its warm-up
// operations, returning the operation ready to be timed.
func setUp(w workload, sz sizes, seed int64) (op, error) {
	run, err := w.prepare(sz, seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.warm; i++ {
		if _, err := run(nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return run, nil
}

// runEndToEnd is one untraced run of one workload: set up, time operations
// one at a time for the given duration, then verify.
func runEndToEnd(w workload, sz sizes, seed int64, seconds float64) (result, detail) {
	res := result{Metrics: map[string]metric{}}
	det := detail{Workload: w.name, Seed: seed, Quartiles: map[string][3]float64{}, Counts: map[string]uint64{}}
	fail := func(err error) (result, detail) {
		det.Errors = append(det.Errors, err.Error())
		res.Correct = false
		return res, det
	}

	var run op
	var setups []float64
	var speed hostSpeed
	for i := 0; i < setupReps; i++ {
		var err error
		speed.sample()
		setups = append(setups, timeIt(func() { run, err = setUp(w, sz, seed) }))
		if err != nil {
			res.Attempted, res.Failed = 1, 1
			return fail(fmt.Errorf("set-up: %w", err))
		}
	}

	var walls, allocs, peaks []float64
	var first opResult
	var ms runtime.MemStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for res.Attempted < minOps || time.Now().Before(deadline) {
		speed.sample()
		resetPeakRSS()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t0 := time.Now()
		r, err := run(nil)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms)
		res.Attempted++
		switch {
		case err != nil:
			res.Failed++
			det.Errors = append(det.Errors, fmt.Sprintf("op %d: %v", res.Attempted, err))
			continue
		case first.digest == "":
			first = r
		case r.digest != first.digest:
			res.Failed++
			det.Errors = append(det.Errors, fmt.Sprintf("op %d: stats digest %s differs from the first op's %s", res.Attempted, r.digest, first.digest))
			continue
		}
		peak, err := peakRSSMB()
		if err != nil {
			return fail(err)
		}
		walls = append(walls, wall)
		allocs = append(allocs, float64(ms.TotalAlloc-before)/(1<<20))
		peaks = append(peaks, peak)
	}
	speed.sample()
	if len(walls) == 0 {
		return fail(fmt.Errorf("no operation succeeded"))
	}

	res.Correct = res.Failed == 0
	if w.verify != nil && res.Correct {
		if err := w.verify(sz, seed, first.digest); err != nil {
			return fail(fmt.Errorf("verify: %w", err))
		}
	}

	det.Ops = len(walls)
	det.StatsDigest = first.digest
	det.Counts["insts"], det.Counts["events"] = first.insts, first.events
	// put records the raw quartiles of a sample and reports value for it.
	put := func(name, unit string, vs []float64, value func(med float64) float64) {
		q1, med, q3 := quartiles(vs)
		det.Quartiles[name] = [3]float64{q1, med, q3}
		res.Metrics[name] = metric{value(med), unit}
	}
	asIs := func(med float64) float64 { return med }
	put("alloc_mb_per_op", "MB", allocs, asIs)
	put("peak_rss_mb", "MB", peaks, asIs)
	// The two times are reported on the yardstick's scale (yardstick.go).
	// Total operation time over total yardstick time is what stays put when
	// the host's speed changes in the middle of a run, so wall_s is a mean.
	slow := speed.slowdown()
	det.HostSlowdown = slow
	put("wall_s", "s", walls, func(float64) float64 { return mean(walls) / slow })
	put("setup_s", "s", setups, func(med float64) float64 { return med / slow })
	return res, det
}
