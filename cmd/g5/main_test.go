package main

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gem5prof"
	"gem5prof/internal/guest"
	"gem5prof/internal/isa"
)

// TestTraceSurvivesFailedRun: the Exec trace is what a failing guest is
// debugged with, so it must be complete on exactly those runs. The guest is
// made to fail through the CLI's own inputs: a checkpoint whose code was
// patched to three nops and a wfi, which parks the only core for good, so
// that the run ends in "guest did not exit cleanly" after four commits.
func TestTraceSurvivesFailedRun(t *testing.T) {
	dir := t.TempDir()
	ckPath, tracePath := filepath.Join(dir, "ck.json"), filepath.Join(dir, "exec.trace")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "sieve", "-take-checkpoint", ckPath, "-checkpoint-after", "5us"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("take-checkpoint exited %d: %s", code, stderr.String())
	}

	data, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := gem5prof.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	patch, err := isa.Assemble("addi x0, x0, 0\naddi x0, x0, 0\naddi x0, x0, 0\nwfi")
	if err != nil {
		t.Fatal(err)
	}
	pc := ck.Arch[0].PC
	if pc%guest.PageBytes+uint32(len(patch.Data)) > guest.PageBytes {
		t.Fatalf("checkpoint PC %#x too close to a page end for the patch", pc)
	}
	key := strconv.Itoa(int(pc / guest.PageBytes))
	page, err := base64.StdEncoding.DecodeString(ck.Mem.Pages[key])
	if err != nil || len(page) != guest.PageBytes {
		t.Fatalf("code page %s of the checkpoint: %d bytes, %v", key, len(page), err)
	}
	copy(page[pc%guest.PageBytes:], patch.Data)
	ck.Mem.Pages[key] = base64.StdEncoding.EncodeToString(page)
	if data, err = ck.Encode(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	stderr.Reset()
	code := run([]string{"-cpu", "timing", "-restore", ckPath, "-trace", tracePath}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "did not exit cleanly") {
		t.Fatalf("patched restore exited %d, want 1 with an unclean-exit error; stderr: %s", code, stderr.String())
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(trace), "\n"), "\n")
	last := fmt.Sprintf("%#08x: wfi", pc+12)
	if len(lines) != 4 || !strings.HasSuffix(lines[3], last) || !strings.HasSuffix(string(trace), "\n") {
		t.Fatalf("trace of the failed run should be its 4 commits ending in %q, got %d lines:\n%s", last, len(lines), trace)
	}
}
