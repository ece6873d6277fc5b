// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-run table1,fig01,...|all] [-j N] [-cores N]
//	            [-simpoint] [-o out.txt]
//	            [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -cores caps the multicore guest scaling sweep (fig16): each cell builds
// an N-core SE guest with per-core L1s/TLBs behind a MESI-style directory
// at the shared L2 (DESIGN.md §14); 0 keeps the default 1/2/4 sweep.
//
// -simpoint switches the sweep-shaped figures (10, 12, 13) to SimPoint-style
// sampled simulation (see DESIGN.md §12): profile once on the Atomic model,
// cluster the basic-block vectors into phases, then simulate only one
// representative interval per phase on the detailed model and extrapolate by
// cluster weight. The intervals are 500 committed instructions, the one
// length the documented error bound was measured at, so no flag changes
// them. Sampled figures carry a note documenting the mode and its error
// bound; figures that need full microarchitectural detail (fig11's Top-Down
// breakdown) always run full.
//
// -cpuprofile and -memprofile write pprof profiles of the harness itself
// (the tool the paper applies to gem5, applied to our reproduction of it),
// which is how the hot-path work in internal/uarch, internal/hostmodel and
// internal/mem is measured before and after. Profiles are flushed and
// closed via defer on every exit path, including experiment failures, so a
// failing run still yields a usable profile. Pool workers carry the pprof
// label cosim-stage=experiment-worker.
//
// Each experiment prints an aligned table whose rows mirror the series of
// the corresponding figure, plus notes comparing the measured shape with the
// paper's published numbers (see EXPERIMENTS.md).
//
// -j bounds how many simulation runs execute concurrently (default
// GOMAXPROCS): experiments fan out against each other and the independent
// runs inside each experiment fan out too, all on one shared pool. The
// report on stdout (and -o) is byte-identical for every -j value — results
// are collected in cell order and each run is a pure function of its cell's
// config — so only timing, which is inherently nondeterministic, goes to
// stderr, where the closing "total:" line also gives the process's peak
// resident set where /proc/self/status can be read. -run ids are checked before anything runs: an unknown id is a
// usage error (exit 2) listing the valid set. See EXPERIMENTS.md for the
// full flag reference.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"gem5prof/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body. It returns the exit code instead of calling os.Exit
// so that the deferred profile writers run on every path, experiment
// failures included. The report goes to stdout (and -o); everything that
// depends on the host — timing, progress, failures — goes to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use reduced workload sets and problem sizes")
	runList := fs.String("run", "all", "comma-separated experiment ids, or 'all'")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulation runs (output is identical for any value)")
	cores := fs.Int("cores", 0, "cap the multicore scaling sweep (fig16) at this guest core count (0 = default 1/2/4)")
	simPoint := fs.Bool("simpoint", false, "sample the sweep figures (10, 12, 13) via SimPoint-style phase-representative intervals")
	outPath := fs.String("o", "", "also write the report to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the harness to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ids, err := selectIDs(*runList)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "cpuprofile:", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	var file *reportFile
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		file = &reportFile{w: f}
	}

	opt := experiments.Options{Quick: *quick, Jobs: *jobs, Cores: *cores, SimPoint: *simPoint}
	start := time.Now()
	failed := 0
	// Outcomes arrive in ids order (not completion order), so the report
	// streams deterministically while later experiments keep computing.
	for oc := range experiments.RunMany(ids, opt) {
		if oc.Err != nil {
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", oc.ID, oc.Err)
			failed++
			continue
		}
		report := oc.Res.Render() + "\n"
		io.WriteString(stdout, report)
		file.write(report)
		fmt.Fprintf(stderr, "%s done at %v\n", oc.ID, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(stderr, "total: %v (-j %d)%s\n", time.Since(start).Round(time.Millisecond), *jobs, peakRSS())
	if err := file.close(); err != nil {
		fmt.Fprintf(stderr, "writing %s: %v\n", *outPath, err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// peakRSS is ", peak RSS N MB", the process's peak resident set (VmHWM in
// /proc/self/status), or "" where that cannot be read.
func peakRSS() string {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64); err == nil {
				return fmt.Sprintf(", peak RSS %.1f MB", float64(kb)/1024)
			}
		}
	}
	return ""
}

// reportFile is the -o copy of the report; nil without -o. A full disk can
// show up in any write or only in the Close that flushes them, so the first
// error of either is kept and fails the run: a truncated report must not
// exit 0.
type reportFile struct {
	w   io.WriteCloser
	err error
}

func (r *reportFile) write(s string) {
	if r == nil || r.err != nil {
		return
	}
	_, r.err = io.WriteString(r.w, s)
}

func (r *reportFile) close() error {
	if r == nil {
		return nil
	}
	if err := r.w.Close(); r.err == nil {
		r.err = err
	}
	return r.err
}

// selectIDs resolves -run to experiment ids, before anything runs: "all",
// or a comma-separated list whose entries are trimmed, dropped when empty
// and each checked against the registered set.
func selectIDs(runList string) ([]string, error) {
	valid := experiments.IDs()
	if runList == "all" {
		return valid, nil
	}
	var ids, unknown []string
	for _, id := range strings.Split(runList, ",") {
		switch id = strings.TrimSpace(id); {
		case id == "":
		case slices.Contains(valid, id):
			ids = append(ids, id)
		default:
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment %s; valid ids: %s", strings.Join(unknown, ", "), strings.Join(valid, " "))
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("-run %q names no experiment; valid ids: %s", runList, strings.Join(valid, " "))
	}
	return ids, nil
}
