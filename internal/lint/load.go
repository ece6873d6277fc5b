package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// Report is what one run of the suite found.
type Report struct {
	Findings     []Finding    // sorted by file, line and column; never nil
	Suppressions []AuditEntry // every annotation, sorted by file and line
}

// listedPackage is the part of one `go list -json` record the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// Check runs analyzers over the packages patterns match in dir (the
// current directory when dir is ""). One `go list -export -deps` has the
// go command build every dependency's export data; each matched package's
// non-test files are then parsed, type-checked against that data, analyzed
// and dropped. A package that does not load is named in the returned error
// and left out of the report, which covers the rest.
func Check(dir string, patterns []string, analyzers []*Analyzer) (Report, error) {
	rep := Report{Findings: []Finding{}}
	listed, err := goList(dir, patterns)
	if err != nil {
		return rep, err
	}
	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		exports[lp.ImportPath] = lp.Export
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})

	var errs []error
	for _, lp := range listed {
		if lp.DepOnly {
			continue
		}
		if lp.Error != nil {
			errs = append(errs, errors.New(strings.TrimSpace(lp.Error.Err)))
			continue
		}
		goVersion := ""
		if lp.Module != nil {
			goVersion = goVersionFor("go" + lp.Module.GoVersion)
		}
		names := make([]string, len(lp.GoFiles))
		for i, name := range lp.GoFiles {
			names[i] = filepath.Join(lp.Dir, name)
		}
		pkg, err := NewPackage(fset, lp.ImportPath, names, imp, goVersion)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		found, audit, err := Run(pkg, analyzers)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		rep.Findings = append(rep.Findings, found...)
		rep.Suppressions = append(rep.Suppressions, audit...)
	}
	sortFindings(rep.Findings)
	sortAudit(rep.Suppressions)
	return rep, errors.Join(errs...)
}

// goList lists patterns and all their dependencies, building export data.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go list: %v\n%s", err, bytes.TrimSpace(ee.Stderr))
		}
		return nil, fmt.Errorf("go list: %v", err)
	}
	var listed []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// goVersionFor sanitizes a module's language version for types.Config
// (which rejects malformed strings rather than ignoring them).
func goVersionFor(v string) string {
	if regexp.MustCompile(`^go[0-9]+(\.[0-9]+)*$`).MatchString(v) {
		return v
	}
	return ""
}
