package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportCarriesNoHostTime is the dynamic half of the determinism
// contract for this command, where the nowallclock source ban does not
// apply (cmd/ may time itself): the report on stdout and in -o is
// byte-identical at every -j, and the wall-clock progress lines and, where
// /proc/self/status can be read, the peak resident set exist — on stderr
// only. The seed's committed experiments_full.txt ended in
// "total: 17m41.636s", so this class did happen once.
func TestReportCarriesNoHostTime(t *testing.T) {
	var reports []string
	for _, j := range []string{"1", "2"} {
		outPath := filepath.Join(t.TempDir(), "report.txt")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-quick", "-run", "table1,fig13", "-j", j, "-o", outPath}, &stdout, &stderr); code != 0 {
			t.Fatalf("-j %s exited %d:\n%s", j, code, stderr.String())
		}
		file, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, stdout.Bytes()) {
			t.Errorf("-j %s: the -o file differs from stdout", j)
		}
		hostLines := []string{"done at", "total:"}
		if _, err := os.Stat("/proc/self/status"); err == nil {
			hostLines = append(hostLines, ", peak RSS ")
		}
		for _, timing := range hostLines {
			if strings.Contains(stdout.String(), timing) {
				t.Errorf("-j %s: report contains the timing line %q", j, timing)
			}
			if !strings.Contains(stderr.String(), timing) {
				t.Errorf("-j %s: stderr lacks the timing line %q:\n%s", j, timing, stderr.String())
			}
		}
		if !strings.Contains(stdout.String(), "=== table1:") || !strings.Contains(stdout.String(), "=== fig13:") {
			t.Errorf("-j %s: report lacks one of the requested experiments:\n%s", j, stdout.String())
		}
		reports = append(reports, stdout.String())
	}
	if reports[0] != reports[1] {
		t.Errorf("report differs between -j 1 and -j 2:\n--- -j 1\n%s\n--- -j 2\n%s", reports[0], reports[1])
	}
}

// TestRunListValidatedUpFront: a bad -run is a usage error (exit 2) that
// names the valid ids and runs nothing, however many good ids precede it.
func TestRunListValidatedUpFront(t *testing.T) {
	for _, c := range []struct{ list, want string }{
		{"fig13,,fig99", "unknown experiment fig99"},
		{"table1,nope, alsonope", "unknown experiment nope, alsonope"},
		{" , ", "names no experiment"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-quick", "-run", c.list}, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), c.want) || !strings.Contains(stderr.String(), "fig13 fig14") {
			t.Errorf("-run %q: exit %d, stderr %q; want 2 and %q with the valid list", c.list, code, stderr.String(), c.want)
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "done at") {
			t.Errorf("-run %q ran something: stdout %q, stderr %q", c.list, stdout.String(), stderr.String())
		}
	}
	// Empty entries and padding are dropped, not run.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-run", " table1 ,,"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "=== table1:") {
		t.Errorf(`-run " table1 ,,": exit %d, stderr %q`, code, stderr.String())
	}
}

// closeFails accepts every write and reports the disk full on Close, the
// way a file system that buffers writes does.
type closeFails struct{ bytes.Buffer }

func (*closeFails) Close() error { return errors.New("no space left on device") }

// TestReportFileErrorsFailTheRun: the -o copy's Close error used to be
// dropped (a deferred f.Close()), and its write errors too, so a report cut
// short by a full disk exited 0. The first error of either kind is kept...
func TestReportFileErrorsFailTheRun(t *testing.T) {
	late := &reportFile{w: &closeFails{}}
	late.write("=== table1 ===\n")
	if late.err != nil {
		t.Fatalf("write failed: %v", late.err)
	}
	if err := late.close(); err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Errorf("close error dropped: %v", err)
	}
	var none *reportFile // no -o
	none.write("x")
	if err := none.close(); err != nil {
		t.Errorf("no -o: %v", err)
	}

	// ... and fails the command, with the report on stdout intact.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to write a report to")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-run", "table1,table2", "-o", "/dev/full"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "writing /dev/full: ") {
		t.Errorf("-o /dev/full: exit %d, stderr %q; want 1 and the write error", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "=== table1:") || !strings.Contains(stdout.String(), "=== table2:") {
		t.Errorf("-o /dev/full: stdout lost part of the report:\n%s", stdout.String())
	}
}

// TestTooManyCoresIsAnError: fig16's 128-core guests used to panic in the
// coherence directory on a pool worker, which took the process down with
// exit 2 before any cell could report. Every cell of -cores 128 now ends in
// an outcome, and the run fails like any run with a failing cell: exit 1 and
// the lowest failing cell's named error on stderr. (That cell is dotprod_mt
// at 32 cores, whose checksum fails because the mt kernels keep 16 thread
// handles; the 128-core guests are refused by core before anything is
// built, which TestRunGuestErrors checks.)
func TestTooManyCoresIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-run", "fig16", "-cores", "128", "-j", "2"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "experiment fig16 failed: fig16 dotprod_mt cores=") {
		t.Errorf("-cores 128: exit %d, stderr %q; want 1 and fig16's named error", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "panic") {
		t.Errorf("-cores 128 panicked:\n%s", stderr.String())
	}
}
