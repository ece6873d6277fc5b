// Command g5lint runs this repository's determinism and simulator-contract
// analyzers (internal/lint) over Go packages:
//
//	g5lint [packages]                findings as vet-style lines on stderr
//	g5lint -json [packages]          findings as a JSON array on stdout
//	g5lint -suppressions [packages]  audit every //lint: annotation and
//	                                 fail on stale ones (annotations whose
//	                                 finding no longer fires)
//
// Packages default to ./... . g5lint loads them itself, in one process:
// one `go list -export` builds the dependencies' export data, and each
// matched package is type-checked from its non-test files against it.
//
// Analyzers: detmap, nowallclock, pastsched, atomicring, statreg,
// sinkdiscipline, shardpost — each looks at one function at a time; see
// internal/lint for what each enforces and for the //lint:deterministic
// and //lint:allow escape hatches.
//
// Every mode exits 0 when clean, 1 on findings (for -suppressions: stale
// annotations) and 2 when a package does not load — it does not parse or
// build — after saying why on stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"gem5prof/internal/lint"
)

func main() {
	os.Exit(run("", os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body over the module in dir.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("g5lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonMode := fs.Bool("json", false, "print findings as a JSON array on stdout")
	suppMode := fs.Bool("suppressions", false, "audit every //lint: annotation; fail on stale ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rep, err := lint.Check(dir, patterns, lint.All())

	failed := len(rep.Findings) > 0
	if *jsonMode && !*suppMode {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(rep.Findings); err != nil {
			fmt.Fprintln(stderr, "g5lint:", err)
			return 2
		}
	} else {
		for _, f := range rep.Findings {
			fmt.Fprintln(stderr, f)
		}
	}
	if *suppMode {
		failed = printAudit(rep.Suppressions, stdout)
	}
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "g5lint:", err)
		return 2
	case failed:
		return 1
	}
	return 0
}

// printAudit renders the annotation table and reports whether any
// annotation is stale.
func printAudit(entries []lint.AuditEntry, w io.Writer) bool {
	stale := 0
	for _, e := range entries {
		status := "used"
		if !e.Used {
			status = "STALE"
			stale++
		}
		fmt.Fprintf(w, "%-5s %-12s %s:%d\n      reason: %s\n", status, e.Analyzer, e.File, e.Line, e.Reason)
	}
	fmt.Fprintf(w, "%d suppressions, %d stale\n", len(entries), stale)
	if stale > 0 {
		fmt.Fprintln(w, "stale suppressions excuse diagnostics that no longer fire; delete them")
	}
	return stale > 0
}
