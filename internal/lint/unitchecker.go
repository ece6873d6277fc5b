package lint

// This file implements the command-line protocol `go vet -vettool=...`
// expects of an analysis tool, against the standard library only. It is a
// minimal reimplementation of the x/tools unitchecker contract (which is
// not importable here):
//
//	g5lint -V=full      print a content-addressed version (build caching)
//	g5lint -flags       describe flags as JSON (flag/package-pattern split)
//	g5lint unit.cfg     analyze one compilation unit described by JSON
//
// The config file supplies the unit's Go files plus a map from package
// path to compiled export data for every dependency, so type-checking one
// unit never re-parses its imports.
//
// Facts. The go command hands each unit a place to write analysis facts
// for its importers (Config.VetxOutput) and visits dependency-only units
// just to collect them (Config.VetxOnly). No analyzer here looks past one
// function, so there are no facts: every unit writes an empty file, and a
// VetxOnly unit does nothing else.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// Config mirrors the JSON compilation-unit description the go command
// writes for a vettool. Fields this driver does not consume are listed for
// decode compatibility.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// SuppressionPrefix starts every audit line the unit driver emits in
// -suppressions mode; the standalone parent greps for it.
const SuppressionPrefix = "g5lint-suppression:"

// Main implements the vettool protocol over the given analyzers and
// exits. os.Args must hold exactly one of -V=full, -flags, or a *.cfg
// path, plus optional analyzer enable flags (accepted and ignored: the
// suite always runs whole) and the -suppressions=<nonce> audit flag.
func Main(analyzers []*Analyzer) {
	log.SetFlags(0)
	log.SetPrefix("g5lint: ")

	var cfgFile string
	suppMode := false
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			printVersion()
			os.Exit(0)
		case arg == "-flags" || arg == "--flags":
			printFlags(analyzers)
			os.Exit(0)
		case strings.HasPrefix(arg, "-suppressions=") || strings.HasPrefix(arg, "--suppressions="):
			// The value is a nonce whose only job is to change the go
			// command's cache key, forcing every unit to actually run.
			suppMode = true
		case len(arg) > 4 && arg[len(arg)-4:] == ".cfg":
			cfgFile = arg
		}
	}
	if cfgFile == "" {
		log.Fatalf("usage: g5lint [packages]  (standalone)  |  go vet -vettool=g5lint [packages]")
	}

	cfg, err := readConfig(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	writeFacts(cfg)
	if cfg.VetxOnly {
		os.Exit(0)
	}

	unit, err := typecheckUnit(cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		log.Fatal(err)
	}
	audit := NewSuppressionAudit()
	diags := runAnalyzers(unit.fset, unit.files, unit.pkg, unit.info, analyzers, audit)

	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	fail := len(diags) > 0
	if suppMode {
		// Report every annotation in non-test files with its fired/stale
		// status. Emitting anything must fail the unit: the go command
		// only surfaces a vettool's stderr when it exits nonzero.
		for _, e := range audit.CollectSuppressions(unit.fset, nonTestFiles(unit.fset, unit.files)) {
			status := "stale"
			if e.Used {
				status = "used"
			}
			fmt.Fprintf(os.Stderr, "%s\t%s:%d\t%s\t%s\t%s\n",
				SuppressionPrefix, e.File, e.Line, e.Analyzer, status, e.Reason)
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
	os.Exit(0)
}

// writeFacts stores the unit's (empty) facts file where the go command
// expects one.
func writeFacts(cfg *Config) {
	if cfg.VetxOutput == "" {
		return
	}
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		log.Fatal(err)
	}
}

func nonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	out := make([]*ast.File, 0, len(files))
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// printVersion emits the -V=full line the go command uses as a cache key:
// it must change whenever the tool binary changes, so it hashes the
// executable itself.
func printVersion() {
	progname, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(progname)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
}

// printFlags describes the tool's flags as JSON; the go command queries
// this to split its own command line into flags and package patterns.
func printFlags(analyzers []*Analyzer) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	flags := make([]jsonFlag, 0, len(analyzers)+1)
	for _, a := range analyzers {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: "enable " + a.Name + " analysis (always on)"})
	}
	// Non-bool so the nonce value rides into each unit invocation (and
	// into the go command's cache key, defeating warm-cache silence).
	flags = append(flags, jsonFlag{Name: "suppressions", Bool: false,
		Usage: "audit //lint: annotations; value is a cache-busting nonce"})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

func readConfig(filename string) (*Config, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode JSON config file %s: %v", filename, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package has no files: %s", cfg.ImportPath)
	}
	return cfg, nil
}

// unit is one parsed and type-checked compilation unit.
type unit struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// typecheckUnit parses and type-checks one compilation unit.
func typecheckUnit(cfg *Config) (*unit, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	// Dependencies type-check from the export data the go command already
	// compiled, via the import map (which resolves vendoring).
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})

	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersionFor(cfg.GoVersion),
	}
	info := newTypesInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &unit{fset: fset, files: files, pkg: pkg, info: info}, nil
}

// goVersionFor sanitizes the config's language version for types.Config
// (which rejects malformed strings rather than ignoring them).
func goVersionFor(v string) string {
	if regexp.MustCompile(`^go[0-9]+(\.[0-9]+)*$`).MatchString(v) {
		return v
	}
	return ""
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// runAnalyzers executes every analyzer over one type-checked package and
// renders the findings as "file:line:col: message [g5lint/name]" lines.
// audit is shared across the analyzers' passes.
func runAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, audit *SuppressionAudit) []string {
	type posDiag struct {
		pos token.Position
		msg string
	}
	var all []posDiag
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Sizes:     types.SizesFor("gc", "amd64"),
			Audit:     audit,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			all = append(all, posDiag{fset.Position(d.Pos), d.Message + " [g5lint/" + name + "]"})
		}
		if err := a.Run(pass); err != nil {
			all = append(all, posDiag{token.Position{}, fmt.Sprintf("analyzer %s: %v", a.Name, err)})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].pos.Filename != all[j].pos.Filename {
			return all[i].pos.Filename < all[j].pos.Filename
		}
		return all[i].pos.Offset < all[j].pos.Offset
	})
	out := make([]string, len(all))
	for i, d := range all {
		out[i] = fmt.Sprintf("%s: %s", d.pos, d.msg)
	}
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
