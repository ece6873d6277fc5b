package lint

import (
	"go/ast"
)

// NoWallClock forbids host entropy inside the simulator core
// (gem5prof/internal/...): wall-clock time, the global math/rand state,
// and the process environment. A guest or session result is a pure
// function of its config and of sim ticks — that is what makes a run
// replayable bit-for-bit on any host and what the golden fixtures, the
// conformance campaigns, and the lane-identity tests all rest on. Banning the sources outright means no flow from them into a
// stat, trace, checkpoint or report can exist. A model that needs variation
// derives it from its config (a generator seeded from a config field) and
// the event queue's Tick domain. Command binaries under cmd/ may time
// themselves (cmd/experiments' own test checks that its report does not
// carry that time); the model may not.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc: "forbid time.Now/global math-rand/os.Getenv-style host entropy in internal " +
		"simulator packages; a result must be a pure function of its config and sim ticks",
	Run: runNoWallClock,
}

// bannedFuncs maps package path -> function name -> what to say.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":       "wall-clock time",
		"Since":     "wall-clock time",
		"Until":     "wall-clock time",
		"After":     "wall-clock timing",
		"Tick":      "wall-clock timing",
		"NewTimer":  "wall-clock timing",
		"NewTicker": "wall-clock timing",
		"Sleep":     "wall-clock timing",
	},
	"os": {
		"Getenv":    "process environment",
		"LookupEnv": "process environment",
		"Environ":   "process environment",
		"Getpid":    "host process identity",
		"Hostname":  "host identity",
	},
}

// randConstructors are the math/rand functions that build an explicitly
// seeded generator and are therefore fine; every other package-level
// rand function draws from the shared, host-seeded global state.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runNoWallClock(pass *Pass) error {
	if !simScope(pass) {
		return nil
	}
	inspect(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		// Methods on explicitly seeded values (e.g. (*rand.Rand).Int63)
		// are fine; only package-level functions are host entropy.
		if isMethod(fn) {
			return true
		}
		path, name := fn.Pkg().Path(), fn.Name()
		if kind, ok := bannedFuncs[path][name]; ok {
			pass.Reportf(call.Pos(),
				"%s.%s injects %s into the simulator; a result must be a pure function of its config and sim ticks", path, name, kind)
			return true
		}
		if (path == "math/rand" || path == "math/rand/v2") && !randConstructors[name] {
			pass.Reportf(call.Pos(),
				"global %s.%s draws from host-seeded shared state; a result must be a pure function of its config and sim ticks — seed a rand.New(rand.NewSource(seed)) from the config", path, name)
		}
		return true
	})
	return nil
}
