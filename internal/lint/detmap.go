package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Detmap flags iteration whose order is Go's randomized map order inside
// any package of the determinism-checked set (everything under gem5prof/
// except the linter): `range` over a map, and maps.Keys/maps.Values calls
// whose result is not immediately sorted. Every report, trace, checkpoint
// and encoding path in this repository promises byte-identical output for
// a given config, and map iteration order is the one language feature that
// silently breaks that promise. Loops that provably commute (pure set
// union, building another map, collect-then-sort) are waived with
// //lint:deterministic <reason> — except a loop whose body accumulates a
// float into a variable declared outside it: float addition does not
// commute (the Fig. 15 Frac column was host-dependent that way), so the
// annotation's claim is false on its face and only sorting the keys, or an
// explicit //lint:allow detmap <reason>, clears it.
var Detmap = &Analyzer{
	Name: "detmap",
	Doc: "flag map-order-dependent iteration (range over a map, unsorted maps.Keys) " +
		"in determinism-critical packages; waive provably commuting loops with //lint:deterministic",
	Run: runDetmap,
}

func runDetmap(pass *Pass) error {
	if !pkgScope(pass) {
		return nil
	}

	// First pass: collect maps.Keys/Values calls that are immediately
	// sorted (slices.Sorted*(maps.Keys(m))): those are deterministic.
	sorted := make(map[*ast.CallExpr]bool)
	inspect(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPkgFunc(pass.TypesInfo, call, "slices", "Sorted") ||
			isPkgFunc(pass.TypesInfo, call, "slices", "SortedFunc") ||
			isPkgFunc(pass.TypesInfo, call, "slices", "SortedStableFunc") {
			for _, arg := range call.Args {
				if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
					sorted[inner] = true
				}
			}
		}
		return true
	})

	inspect(pass, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if !typeIsMap(pass.TypesInfo.TypeOf(n.X)) {
				break
			}
			if acc := floatAccumulator(pass.TypesInfo, n); acc != "" {
				pass.reportf(n.Range, false,
					"range over a map accumulates float %s in iteration order: float addition does not commute, so //lint:deterministic cannot waive this loop; sort the keys first", acc)
			} else {
				pass.Reportf(n.Range,
					"range over a map: iteration order leaks into behavior; sort the keys first, or annotate //lint:deterministic <reason> if the loop commutes")
			}
		case *ast.CallExpr:
			for _, fn := range []string{"Keys", "Values"} {
				if isPkgFunc(pass.TypesInfo, n, "maps", fn) && !sorted[n] {
					pass.Reportf(n.Pos(),
						"maps.%s without an immediate sort yields map-ordered results; wrap in slices.Sorted or sort before use", fn)
				}
			}
		}
		return true
	})
	return nil
}

// floatAccumulator returns the first float variable (or field path) that
// the loop's body accumulates into — x += e, x -= e, x = x + e — and that
// is declared outside the loop, or "". It looks at this function's text
// only: a sum hidden behind a call is left to the goldens at every -j.
func floatAccumulator(info *types.Info, loop *ast.RangeStmt) string {
	acc := ""
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if acc != "" {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !accumulates(as) {
			return true
		}
		basic, ok := info.TypeOf(as.Lhs[0]).Underlying().(*types.Basic)
		if !ok || basic.Info()&(types.IsFloat|types.IsComplex) == 0 {
			return true
		}
		root := ast.Unparen(as.Lhs[0])
		for sel, ok := root.(*ast.SelectorExpr); ok; sel, ok = root.(*ast.SelectorExpr) {
			root = ast.Unparen(sel.X)
		}
		if id, ok := root.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && (obj.Pos() < loop.Pos() || obj.Pos() >= loop.End()) {
				acc = types.ExprString(as.Lhs[0])
			}
		}
		return true
	})
	return acc
}

// accumulates reports whether a one-to-one assignment folds its right side
// into its left: x += e, x -= e, x = x + e, x = x - e.
func accumulates(as *ast.AssignStmt) bool {
	if as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN {
		return true
	}
	b, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
	return as.Tok == token.ASSIGN && ok && (b.Op == token.ADD || b.Op == token.SUB) &&
		types.ExprString(b.X) == types.ExprString(as.Lhs[0])
}
