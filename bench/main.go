// Command bench is the repository's benchmark: six named workloads, each
// measured end to end with tracing off, and a traced pass that attributes
// host time to the layers of the co-simulation stack. BENCHMARK.json at the
// repository root declares it; README.md defines every workload and metric.
//
//	bash bench/run.sh --workload cosim_serial --seed 42 --seconds 10 --trace 0
//
// runs one workload in this process and prints, as the last line of
// standard output, the result object the benchmark driver reads. Without
// --workload it runs every workload, each in a child process of its own so
// that caches, heap and peak memory do not leak between them, and prints
// one document; --selfcheck does that twice and compares the two passes
// against the bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// decl declares one end-to-end metric; BENCHMARK.json repeats these and
// bench_test.go holds the two in step.
type decl struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []decl{
	{"wall_s", "s", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// buildDir is where the benchmark keeps what it writes: the binary (put
// there by run.sh), span files and the checkpoint-cache probes' directories.
const buildDir = ".bench_build"

func main() {
	var (
		name      = flag.String("workload", "", "workload to run in this process (default: all, each in a child process)")
		seed      = flag.Int64("seed", 42, "seed the inputs are generated from")
		seconds   = flag.Float64("seconds", 10, "how long one run times operations")
		trace     = flag.Int("trace", 0, "1 = the traced pass with per-layer metrics, 0 = end-to-end metrics with tracing off")
		traceOut  = flag.String("trace-out", "", "span file of a traced run (default "+buildDir+"/spans-<workload>.json)")
		smoke     = flag.Bool("smoke", false, "tiny sizes: proves the paths run, measures nothing")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end pass twice and compare the medians against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("want -seconds > 0 and -trace 0 or 1")
	}

	if *name == "" {
		args := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", fmt.Sprint(*seconds),
			"-trace", strconv.Itoa(*trace), fmt.Sprintf("-smoke=%t", *smoke)}
		if *selfcheck {
			os.Exit(runSelfcheck(args))
		}
		doc, ok := runAll(args)
		printJSON(doc, true)
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, ok := workloadByName(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	var res result
	var det detail
	if *trace == 1 {
		if *traceOut == "" {
			*traceOut = filepath.Join(buildDir, "spans-"+w.name+".json")
		}
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		//lint:allow detflow a span file records wall-clock time on purpose; it is no simulator output
		res, det = runTrace(w, sz, *seed, *seconds, buildDir, *traceOut)
	} else {
		res, det = runEndToEnd(w, sz, *seed, *seconds)
	}
	for _, e := range det.Errors {
		fmt.Fprintln(os.Stderr, "bench:", w.name+":", e)
	}
	printJSON(det, false)
	printJSON(res, false)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// printJSON writes v as JSON on standard output. encoding/json sorts map
// keys, so the same measurements always print in the same order.
func printJSON(v any, indent bool) {
	var data []byte
	var err error
	if indent {
		data, err = json.MarshalIndent(v, "", "  ")
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(data))
}

// host describes the machine a document was recorded on.
type host struct {
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu"`
	GoVersion string `json:"go_version"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

// workloadReport is one workload's two output lines joined.
type workloadReport struct {
	detail
	result
}

// document is what the all-workloads mode prints.
type document struct {
	Host      host             `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

// runChild runs one workload in a child process and parses its last two
// lines of output.
func runChild(name string, args []string) (workloadReport, error) {
	var rep workloadReport
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(self, append([]string{"-workload", name}, args...)...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) < 2 {
		return rep, fmt.Errorf("%s: no result (%v)", name, runErr)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &rep.detail); err != nil {
		return rep, fmt.Errorf("%s: detail line: %w", name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rep.result); err != nil {
		return rep, fmt.Errorf("%s: result line: %w", name, err)
	}
	return rep, nil
}

// runAll runs every workload once and reports whether all were correct.
func runAll(args []string) (document, bool) {
	doc := document{Host: hostInfo()}
	ok := true
	for _, w := range allWorkloads {
		rep, err := runChild(w.name, args)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
			continue
		}
		ok = ok && rep.Correct
		doc.Workloads = append(doc.Workloads, rep)
	}
	return doc, ok
}

// worsening returns by what share of the first median a the second median
// b is worse, for a metric where lower is better (all end-to-end ones are).
func worsening(a, b float64) float64 { return ratio(b-a, a) }

// runSelfcheck runs the pass twice and prints, for every workload and
// metric, both medians and their relative difference. An end-to-end metric
// must stay within its bound; a traced pass has no bounds, but its exact
// counts must repeat exactly, and so must every stats digest.
func runSelfcheck(args []string) int {
	first, ok1 := runAll(args)
	second, ok2 := runAll(args)
	code := 0
	if !ok1 || !ok2 || len(first.Workloads) != len(second.Workloads) {
		code = 1
	}
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.name] = d.bound
	}
	h := first.Host
	fmt.Printf("host: nproc=%d cpu=%q %s\n", h.NProc, h.CPU, h.GoVersion)
	fmt.Printf("%-16s %-26s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := 0; i < len(first.Workloads) && i < len(second.Workloads); i++ {
		a, b := first.Workloads[i], second.Workloads[i]
		names := make([]string, 0, len(a.Metrics))
		//lint:deterministic keys are sorted before use
		for name := range a.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := a.Metrics[name].Value, b.Metrics[name].Value
			worse := worsening(va, vb)
			bound, mark := "", ""
			if limit, ok := bounds[name]; ok {
				bound = fmt.Sprintf("%.0f%%", 100*limit)
				if worse > limit {
					mark = "  OUTSIDE"
				}
			} else if unit := a.Metrics[name].Unit; (unit == "count" || unit == "%") && va != vb {
				mark = "  NOT EXACT"
			}
			if mark != "" {
				code = 1
			}
			fmt.Printf("%-16s %-26s %12.5g %12.5g %+7.1f%% %6s%s\n", a.Workload, name, va, vb, 100*worse, bound, mark)
		}
		exact := a.StatsDigest == b.StatsDigest && fmt.Sprint(a.Counts) == fmt.Sprint(b.Counts)
		if !exact {
			code = 1
		}
		fmt.Printf("%-16s %-26s %.16s exact=%t\n", a.Workload, "stats_digest", a.StatsDigest, exact)
	}
	return code
}
