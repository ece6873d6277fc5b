// Command g5 runs one guest simulation of the g5 architectural simulator:
// pick a CPU model, a mode, and a workload, and get gem5-style statistics.
//
// Usage:
//
//	g5 -cpu o3 -mode se -workload water_nsquared -scale 96 -stats
//	g5 -mode fs -boot-exit -cpu atomic
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gem5prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body. It returns the exit code instead of calling os.Exit so
// that the deferred flush of the -trace file runs on every path: the Exec
// trace of a guest that fails is the one that is wanted.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("g5", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cpuModel := fs.String("cpu", "atomic", "CPU model: atomic|timing|minor|o3")
	mode := fs.String("mode", "se", "simulation mode: se|fs")
	workload := fs.String("workload", "sieve", "workload name (see -list)")
	scale := fs.Int("scale", 0, "problem size (0 = workload default)")
	bootExit := fs.Bool("boot-exit", false, "FS mode: boot the kernel and exit")
	cores := fs.Int("cores", 1, "simulated cores (SE: threads via the spawn syscall; FS: extra harts park)")
	ideal := fs.Bool("ideal-mem", false, "disable the cache model")
	guestTLBs := fs.Bool("guest-tlbs", false, "insert guest iTLB/dTLB in front of the L1s")
	stats := fs.Bool("stats", false, "dump the full statistics registry")
	list := fs.Bool("list", false, "list workloads and exit")
	ckptOut := fs.String("take-checkpoint", "", "fast-forward (atomic CPU), write a checkpoint here and exit")
	ckptAfter := fs.Duration("checkpoint-after", 0, "guest time to fast-forward before checkpointing (e.g. 20us)")
	restore := fs.String("restore", "", "resume from a checkpoint file")
	tracePath := fs.String("trace", "", "write an Exec trace (one line per committed instruction)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:", strings.Join(gem5prof.WorkloadNames(), " "))
		return 0
	}

	cfg := gem5prof.GuestConfig{
		CPU:         gem5prof.CPUModel(*cpuModel),
		Mode:        gem5prof.Mode(*mode),
		Workload:    *workload,
		Scale:       *scale,
		BootExit:    *bootExit,
		Cores:       *cores,
		IdealMemory: *ideal,
		GuestTLBs:   *guestTLBs,
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, "g5:", err)
			return 1
		}
		w := bufio.NewWriter(f)
		cfg.ExecTrace = w
		defer func() {
			err := w.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(stderr, "g5: trace:", err)
				code = 1
			}
		}()
	}
	t0 := time.Now()
	if *ckptOut != "" {
		if err := takeCheckpoint(stdout, cfg, *ckptOut, *ckptAfter); err != nil {
			fmt.Fprintln(stderr, "g5:", err)
			return 1
		}
		return 0
	}
	var res *gem5prof.GuestResult
	var err error
	if *restore != "" {
		res, err = restoreAndRun(stdout, cfg, *restore)
	} else {
		res, err = gem5prof.RunGuest(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "g5:", err)
		return 1
	}
	fmt.Fprintf(stdout, "Exiting @ tick %d because %s (code %d)\n", res.SimTicks, res.ExitReason, res.ExitCode)
	fmt.Fprintf(stdout, "committed instructions: %d\n", res.Insts)
	fmt.Fprintf(stdout, "simulated seconds:      %.6f\n", float64(res.SimTicks)/1e12)
	fmt.Fprintf(stdout, "host wall clock:        %v\n", time.Since(t0).Round(time.Millisecond))
	if res.Expected != 0 || res.ChecksumOK {
		fmt.Fprintf(stdout, "checksum:               %#x (reference match: %v)\n", uint32(res.ExitCode), res.ChecksumOK)
	}
	if res.Stdout != "" {
		fmt.Fprintf(stdout, "--- guest output ---\n%s", res.Stdout)
	}
	if *stats {
		fmt.Fprint(stdout, res.Stats.Dump())
	}
	return 0
}

// takeCheckpoint fast-forwards with the Atomic CPU and writes a checkpoint.
func takeCheckpoint(stdout io.Writer, cfg gem5prof.GuestConfig, path string, after time.Duration) error {
	cfg.CPU = gem5prof.Atomic
	if after <= 0 {
		after = 20 * time.Microsecond
	}
	g, err := gem5prof.NewGuest(cfg)
	if err != nil {
		return err
	}
	res := g.RunFor(gem5prof.Tick(after.Nanoseconds()) * gem5prof.Nanosecond)
	fmt.Fprintf(stdout, "fast-forwarded to tick %d (%v)\n", res.Now, res.Status)
	ck, err := g.TakeCheckpoint()
	if err != nil {
		return err
	}
	data, err := ck.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d instructions, %d bytes\n", path, ck.Insts, len(data))
	return nil
}

// restoreAndRun resumes a checkpoint under the requested CPU model.
func restoreAndRun(stdout io.Writer, cfg gem5prof.GuestConfig, path string) (*gem5prof.GuestResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := gem5prof.DecodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	g, err := gem5prof.RestoreFromCheckpoint(cfg, ck)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "restored %s at tick %d into the %s model\n", path, ck.Tick, cfg.CPU)
	return g.Run()
}
