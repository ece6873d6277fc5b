// Command g5lint runs this repository's determinism and simulator-contract
// analyzers (internal/lint) over Go packages.
//
// It speaks the `go vet -vettool` unitchecker protocol, so CI runs it as
//
//	go build -o g5lint ./cmd/g5lint
//	go vet -vettool=$PWD/g5lint ./...
//
// and it also works standalone — `go run ./cmd/g5lint ./...` — by
// re-executing itself through go vet, which supplies parsed compilation
// units (and their export data) per package. Standalone modes:
//
//	g5lint [packages]                findings as plain vet lines
//	g5lint -json [packages]          findings as a JSON array on stdout
//	g5lint -suppressions [packages]  audit every //lint: annotation and
//	                                 fail on stale ones (annotations whose
//	                                 diagnostic no longer fires)
//
// Analyzers: detmap, nowallclock, pastsched, atomicring, statreg,
// sinkdiscipline, shardpost — each looks at one function at a time; see
// internal/lint for what each enforces and for the //lint:deterministic
// and //lint:allow escape hatches.
//
// The plain mode exits with go vet's own status. -json and -suppressions
// exit 0 when clean, 1 on findings (for -suppressions: stale annotations)
// and 2 when the vet run underneath failed some other way — a package that
// does not parse or build — after passing its output on to stderr.
package main

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"

	"gem5prof/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body for the standalone modes. Invoked by the go command as
// a vet tool it hands over to lint.Main, which reads os.Args and exits.
func run(args []string, stdout, stderr io.Writer) int {
	for _, arg := range args {
		if arg == "-V=full" || arg == "--V=full" || arg == "-flags" || arg == "--flags" ||
			strings.HasSuffix(arg, ".cfg") {
			lint.Main(lint.All()) // exits
		}
	}
	jsonMode, suppMode := false, false
	patterns := make([]string, 0, len(args))
	for _, arg := range args {
		switch arg {
		case "-json", "--json":
			jsonMode = true
		case "-suppressions", "--suppressions":
			suppMode = true
		default:
			patterns = append(patterns, arg)
		}
	}
	switch {
	case suppMode:
		return suppressionsMode(patterns, stdout, stderr)
	case jsonMode:
		return jsonFindings(patterns, stdout, stderr)
	default:
		return vet(patterns, stdout, stderr)
	}
}

// vet re-invokes the suite through `go vet -vettool=<self>` so the go
// command does the package loading and export-data plumbing, with extra
// flags inserted before the patterns, and returns go vet's exit status.
func vet(patterns []string, stdout, stderr io.Writer, extra ...string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "g5lint:", err)
		return 2
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	vetArgs := append([]string{"vet", "-vettool=" + self}, extra...)
	cmd := exec.Command("go", append(vetArgs, patterns...)...)
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(stderr, "g5lint:", err)
		return 2
	}
	return 0
}

// findingRE matches one rendered diagnostic line.
var findingRE = regexp.MustCompile(`^(.+?\.go):(\d+):(\d+): (.*) \[g5lint/([a-z]+)\]$`)

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// suppression is one audited //lint: annotation.
type suppression struct{ loc, analyzer, status, reason string }

// vetOutput is one captured vet run split by line kind. failed means the
// run broke rather than reported: it exited nonzero and said something
// that is neither a finding, an audit line nor a "# package" header — a
// parse or build error — so what it did report cannot be taken as complete.
type vetOutput struct {
	findings     []jsonFinding
	suppressions []suppression
	failed       bool
}

// capturedVet runs vet and sorts its output; the lines that make a run
// failed are passed through to stderr so they do not vanish.
func capturedVet(patterns []string, stderr io.Writer, extra ...string) vetOutput {
	var buf bytes.Buffer
	code := vet(patterns, &buf, &buf, extra...)
	out := vetOutput{findings: []jsonFinding{}}
	sawOther := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, lint.SuppressionPrefix+"\t"); ok {
			if f := strings.SplitN(rest, "\t", 4); len(f) == 4 {
				out.suppressions = append(out.suppressions, suppression{f[0], f[1], f[2], f[3]})
				continue
			}
		}
		if m := findingRE.FindStringSubmatch(line); m != nil {
			lineNo, _ := strconv.Atoi(m[2])
			colNo, _ := strconv.Atoi(m[3])
			out.findings = append(out.findings, jsonFinding{File: m[1], Line: lineNo, Col: colNo,
				Analyzer: m[5], Message: m[4]})
			continue
		}
		if line != "" && !strings.HasPrefix(line, "#") {
			fmt.Fprintln(stderr, line)
			sawOther = true
		}
	}
	out.failed = code != 0 && sawOther
	return out
}

// jsonFindings runs the suite and reprints the findings as a JSON array on
// stdout (always an array, possibly empty).
func jsonFindings(patterns []string, stdout, stderr io.Writer) int {
	out := capturedVet(patterns, stderr)
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(out.findings); err != nil {
		fmt.Fprintln(stderr, "g5lint:", err)
		return 2
	}
	switch {
	case out.failed:
		return 2
	case len(out.findings) > 0:
		return 1
	}
	return 0
}

// suppressionsMode audits every //lint: annotation: each unit re-runs
// with a cache-busting nonce and reports its annotations as
// g5lint-suppression lines; this parent renders the table and fails when
// any annotation is stale (suppresses nothing anymore). Ordinary findings
// still stream through to stderr.
func suppressionsMode(patterns []string, stdout, stderr io.Writer) int {
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		fmt.Fprintln(stderr, "g5lint:", err)
		return 2
	}
	out := capturedVet(patterns, stderr, "-suppressions=run"+hex.EncodeToString(nonce[:]))
	for _, f := range out.findings {
		fmt.Fprintf(stderr, "%s:%d:%d: %s [g5lint/%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
	}
	stale := 0
	for _, e := range out.suppressions {
		status := e.status
		if status == "stale" {
			status = "STALE"
			stale++
		}
		fmt.Fprintf(stdout, "%-5s %-12s %s\n      reason: %s\n", status, e.analyzer, e.loc, e.reason)
	}
	fmt.Fprintf(stdout, "%d suppressions, %d stale\n", len(out.suppressions), stale)
	if stale > 0 {
		fmt.Fprintln(stdout, "stale suppressions excuse diagnostics that no longer fire; delete them")
	}
	switch {
	case out.failed:
		fmt.Fprintln(stderr, "g5lint: the vet run failed; the audit above is incomplete")
		return 2
	case stale > 0:
		return 1
	}
	return 0
}
