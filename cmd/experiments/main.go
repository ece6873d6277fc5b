// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-run table1,fig01,...|all] [-j N] [-pipeline on|off]
//	            [-cores N] [-simpoint] [-simpoint-interval N]
//	            [-ckpt-cache-dir DIR] [-o out.txt] [-cpuprofile cpu.out]
//	            [-memprofile mem.out]
//
// -cores caps the multicore guest scaling sweep (fig16): each cell builds
// an N-core SE guest with per-core L1s/TLBs behind a MESI-style directory
// at the shared L2 (DESIGN.md §14); 0 keeps the default 1/2/4 sweep.
//
// -simpoint switches the sweep-shaped figures (10, 12, 13) to SimPoint-style
// sampled simulation (see DESIGN.md §12): profile once on the Atomic model,
// cluster the basic-block vectors into phases, then simulate only one
// representative interval per phase on the detailed model and extrapolate by
// cluster weight. Sampled figures carry a note documenting the mode and its
// error bound; figures that need full microarchitectural detail (fig11's
// Top-Down breakdown) always run full. -ckpt-cache-dir persists the
// fast-forward checkpoints across processes in a content-addressed,
// self-verifying cache (internal/ckptcache); corrupt or version-skewed
// entries are evicted and re-simulated, never restored.
//
// -cpuprofile and -memprofile write pprof profiles of the harness itself
// (the tool the paper applies to gem5, applied to our reproduction of it),
// which is how the hot-path work in internal/uarch, internal/hostmodel and
// internal/mem is measured before and after. Profiles are flushed and
// closed via defer on every exit path, including experiment failures, so a
// failing run still yields a usable profile. Goroutines carry pprof labels
// (cosim-stage = experiment-worker / guest-producer / uarch-consumer), so
// `go tool pprof -tagfocus` attributes time to pipeline stages.
//
// -pipeline controls the in-session producer/consumer split (see DESIGN.md
// §10): "on" runs every co-simulation's guest simulator + trace synthesis
// and its host uarch model on separate goroutines coupled by a batched SPSC
// ring. Output is byte-identical either way; the default is "off" because
// the measured cost of the ring exceeds what the overlap buys (DESIGN.md
// §15). See EXPERIMENTS.md for the full flag reference.
//
// Each experiment prints an aligned table whose rows mirror the series of
// the corresponding figure, plus notes comparing the measured shape with the
// paper's published numbers (see EXPERIMENTS.md).
//
// -j bounds how many simulation runs execute concurrently (default
// GOMAXPROCS): experiments fan out against each other and the independent
// runs inside each experiment fan out too, all on one shared pool. The
// report on stdout (and -o) is byte-identical for every -j value — results
// are collected in cell order and per-run seeds derive from (experiment id,
// cell index) — so only timing, which is inherently nondeterministic, goes
// to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gem5prof/internal/core"
	"gem5prof/internal/experiments"
)

func main() {
	// Indirection so deferred profile writers run before the process
	// exits, even when experiments fail.
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "use reduced workload sets and problem sizes")
	runList := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulation runs (output is identical for any value)")
	pipeline := flag.String("pipeline", "off", "in-session producer/consumer pipeline: on or off (output is identical either way)")
	cores := flag.Int("cores", 0, "cap the multicore scaling sweep (fig16) at this guest core count (0 = default 1/2/4)")
	simPoint := flag.Bool("simpoint", false, "sample the sweep figures (10, 12, 13) via SimPoint-style phase-representative intervals")
	simPointInterval := flag.Uint64("simpoint-interval", 0, "override the SimPoint profiling interval in committed instructions (0 = harness default)")
	ckptCacheDir := flag.String("ckpt-cache-dir", "", "persist fast-forward checkpoints in this directory (content-addressed, self-verifying)")
	outPath := flag.String("o", "", "also write the report to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the harness to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	mode, ok := core.ParsePipelineMode(*pipeline)
	if !ok {
		fmt.Fprintf(os.Stderr, "invalid -pipeline %q (want on or off)\n", *pipeline)
		return 2
	}
	core.SetDefaultPipeline(mode)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// Stop and close via defer so the profile is complete on every
		// exit path of run() — experiment failures included. (main exits
		// through run()'s return value, never os.Exit directly, precisely
		// so these defers always execute.)
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	ids := experiments.IDs()
	if *runList != "all" {
		ids = strings.Split(*runList, ",")
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	opt := experiments.Options{
		Quick: *quick, Jobs: *jobs,
		Cores:            *cores,
		SimPoint:         *simPoint,
		SimPointInterval: *simPointInterval,
		CkptCacheDir:     *ckptCacheDir,
	}
	start := time.Now()
	failed := 0
	// Outcomes arrive in ids order (not completion order), so the report
	// streams deterministically while later experiments keep computing.
	for oc := range experiments.RunMany(ids, opt) {
		if oc.Err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", oc.ID, oc.Err)
			failed++
			continue
		}
		fmt.Fprint(out, oc.Res.Render())
		fmt.Fprintln(out)
		fmt.Fprintf(os.Stderr, "%s done at %v\n", oc.ID, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "total: %v (-j %d)\n", time.Since(start).Round(time.Millisecond), *jobs)
	if failed > 0 {
		return 1
	}
	return 0
}
