package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// StatReg enforces the statistics-registration discipline around
// sim.Registry (whose runtime half is the duplicate-name panic in
// Registry.add):
//
//   - registrations (Registry.Scalar/Counter/Formula/Histogram) must
//     happen during construction — in a New*/new* function or a
//     *stats*/*register* helper — never mid-simulation, where a partially
//     populated registry would make two same-seed runs dump different
//     stat sets;
//   - two registrations in one function must not use syntactically
//     identical name arguments (the compile-time half of the runtime
//     duplicate panic);
//   - a Scalar/Counter/Histogram whose result is discarded is dead: no
//     code can ever update it, so it pollutes every dump with a
//     constant zero (a Formula result may be discarded — it computes
//     through its closure);
//   - a stat assigned to a variable or field that is never mentioned
//     again in the package is equally dead: registered, dumped, never
//     driven by the model;
//   - a registration inside a loop whose name argument is a compile-time
//     constant is a guaranteed second-iteration panic: per-instance stat
//     families (per-core caches, per-bank DRAM counters, the directory's
//     per-core presence stats) must derive the name from the loop
//     variable.
var StatReg = &Analyzer{
	Name: "statreg",
	Doc: "stat registrations must happen in constructors with unique names, and every " +
		"registered stat must be reachable by the model (no discarded or never-used stats)",
	Run: runStatReg,
}

// registryMethods maps method name -> whether a discarded result is dead.
var registryMethods = map[string]bool{
	"Scalar":    true,
	"Counter":   true,
	"Histogram": true,
	"Formula":   false,
}

func runStatReg(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkStatFunc(pass, fd)
			}
		}
	}
	return nil
}

// isRegistryCall matches calls of the registration methods on sim.Registry
// (by type name and package name, so linttest fixtures can supply a stub).
func isRegistryCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if _, known := registryMethods[sel.Sel.Name]; !known {
		return "", false
	}
	recv := namedType(pass.TypesInfo.TypeOf(sel.X))
	if recv == nil || recv.Obj().Name() != "Registry" ||
		recv.Obj().Pkg() == nil || recv.Obj().Pkg().Name() != "sim" {
		return "", false
	}
	return sel.Sel.Name, true
}

func checkStatFunc(pass *Pass, fd *ast.FuncDecl) {
	nameArgs := make(map[string]ast.Expr) // rendered name arg -> first site
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := isRegistryCall(pass, call)
		if !ok {
			return true
		}

		if !isConstructorish(fd) {
			pass.Reportf(call.Pos(),
				"stat %s registration outside a constructor (%s): register stats in New* so every same-seed run dumps the same stat set", method, fd.Name.Name)
		}

		if len(call.Args) > 0 {
			key := types.ExprString(call.Args[0])
			if first, dup := nameArgs[key]; dup {
				pass.Reportf(call.Pos(),
					"duplicate stat name %s (first registered at %s); Registry.add will panic at run time", key, pass.Fset.Position(first.Pos()))
			} else {
				nameArgs[key] = call.Args[0]
			}
		}
		return true
	})

	checkStatUse(pass, fd)
	checkStatLoop(pass, fd)
}

// checkStatLoop flags registrations inside a for/range body whose name
// argument is a compile-time constant. The per-function duplicate check
// above cannot see these — one syntactic site, many dynamic
// registrations — but the second iteration re-registers the same name and
// Registry.add panics at run time. This is the multicore trap: replicating
// a cache or TLB per core replicates its constructor calls in a loop, and
// every stat name inside must vary with the instance.
func checkStatLoop(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			switch m.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				// A nested loop is visited by the outer Inspect in its
				// own right; stopping here attributes each call to its
				// innermost enclosing loop exactly once.
				return false
			case *ast.FuncLit:
				// A closure built in the loop need not run per
				// iteration; flagging its body would be speculative.
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := isRegistryCall(pass, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil {
				pass.Reportf(call.Pos(),
					"stat %s registered inside a loop with constant name %s: the second iteration re-registers it and Registry.add panics (derive the name from the loop variable, e.g. fmt.Sprintf)",
					method, types.ExprString(call.Args[0]))
			}
			return true
		})
		return true
	})
}

func isConstructorish(fd *ast.FuncDecl) bool {
	name := strings.ToLower(fd.Name.Name)
	return strings.HasPrefix(name, "new") ||
		strings.Contains(name, "stat") || strings.Contains(name, "register")
}

// checkStatUse implements the dead-stat rules: discarded results and
// assigned-but-never-referenced stats.
func checkStatUse(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if method, ok := isRegistryCall(pass, call); ok && registryMethods[method] {
					pass.Reportf(call.Pos(),
						"registered %s is discarded: nothing can ever update it, so it dumps as a constant zero (assign it, or use a Formula)", method)
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				method, ok := isRegistryCall(pass, call)
				if !ok {
					continue
				}
				lhs := ast.Unparen(n.Lhs[i])
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && registryMethods[method] {
					pass.Reportf(call.Pos(),
						"registered %s is assigned to _: nothing can ever update it (assign it, or use a Formula)", method)
					continue
				}
				if obj := assignedObj(pass, lhs); obj != nil && !usedElsewhere(pass, obj, lhs) {
					pass.Reportf(call.Pos(),
						"stat assigned to %s is never referenced again in this package: registered but never driven by the model", obj.Name())
				}
			}
		}
		return true
	})
}

// assignedObj resolves the variable or field an assignment writes.
func assignedObj(pass *Pass, lhs ast.Expr) types.Object {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Defs[lhs]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Uses[lhs]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[lhs.Sel]
	}
	return nil
}

// usedElsewhere reports whether obj is referenced anywhere in the package
// other than the registering assignment's own LHS.
func usedElsewhere(pass *Pass, obj types.Object, registeringLHS ast.Expr) bool {
	var lhsIdent *ast.Ident
	switch l := registeringLHS.(type) {
	case *ast.Ident:
		lhsIdent = l
	case *ast.SelectorExpr:
		lhsIdent = l.Sel
	}
	used := false
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || id == lhsIdent {
				return true
			}
			if pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj {
				// The field's declaration does not count as a use.
				if _, isDecl := pass.TypesInfo.Defs[id]; !isDecl {
					used = true
				}
			}
			return !used
		})
		if used {
			break
		}
	}
	return used
}
