package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicRing checks the two SPSC-ring concurrency disciplines that the
// pipelined co-simulation's bit-identical-stats argument rested on; the
// ring outlives it because the benchmark still times it (DESIGN.md §15,
// "Removed: the pipelined session, the calendar selection and `ExecPlan`"):
//
//  1. Mixed access: a struct field that is read or written through
//     sync/atomic anywhere in the package must never be touched with a
//     plain load or store elsewhere (outside its New* constructor, where
//     the value is not yet shared). A single torn read of the ring's
//     indices silently reorders the record stream.
//
//  2. False sharing: two hot atomic counters (atomic.Uint64/Int64/
//     Uint32/Int32/Uintptr fields, the head/tail index idiom) declared
//     adjacently in one struct share a cache line; they must be
//     separated by >= 64 bytes of padding (the `_ pad` idiom). Parked
//     flags (atomic.Bool) are edge-path-only and exempt.
var AtomicRing = &Analyzer{
	Name: "atomicring",
	Doc: "flag plain access to fields accessed via sync/atomic elsewhere, and adjacent " +
		"hot typed-atomic counters without cache-line padding",
	Run: runAtomicRing,
}

func runAtomicRing(pass *Pass) error {
	checkMixedAccess(pass)
	checkPadding(pass)
	return nil
}

// checkMixedAccess implements rule 1 for raw sync/atomic function use
// (typed atomics — atomic.Uint64 fields — cannot be accessed plainly, so
// they need no rule).
func checkMixedAccess(pass *Pass) {
	// Fields whose address is taken for a sync/atomic call.
	atomicFields := make(map[types.Object]bool)
	// &x.f expressions that ARE those call arguments (not plain access).
	blessed := make(map[*ast.SelectorExpr]bool)

	inspect(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok || un.Op.String() != "&" {
				continue
			}
			sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil {
				atomicFields[obj] = true
				blessed[sel] = true
			}
		}
		return true
	})
	if len(atomicFields) == 0 {
		return
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isConstructor(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || blessed[sel] {
					return true
				}
				if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && atomicFields[obj] {
					pass.Reportf(sel.Pos(),
						"field %s is accessed via sync/atomic elsewhere in this package; this plain access can tear — use the atomic API (or move the access into the constructor)",
						sel.Sel.Name)
				}
				return true
			})
		}
	}
}

func isConstructor(fd *ast.FuncDecl) bool {
	return strings.HasPrefix(fd.Name.Name, "New") || strings.HasPrefix(fd.Name.Name, "new")
}

// hotAtomicTypes are the typed atomics used as high-rate shared counters.
var hotAtomicTypes = map[string]bool{
	"Uint64": true, "Int64": true, "Uint32": true, "Int32": true, "Uintptr": true,
}

// checkPadding implements rule 2.
func checkPadding(pass *Pass) {
	inspect(pass, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		var prevHot *ast.Field // last hot atomic seen with no padding since
		for _, field := range st.Fields.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			switch {
			case isHotAtomic(t):
				if prevHot != nil {
					pass.Reportf(field.Pos(),
						"hot atomic fields %s and %s in %s share a cache line (false sharing between producer and consumer); separate them with >= 64 bytes of padding",
						fieldLabel(prevHot), fieldLabel(field), ts.Name.Name)
				}
				prevHot = field
			case fieldSize(pass, t)*int64(max(1, len(field.Names))) >= 64:
				prevHot = nil
			}
		}
		return true
	})
}

func fieldLabel(f *ast.Field) string {
	if len(f.Names) > 0 {
		return f.Names[0].Name
	}
	return "(embedded)"
}

func isHotAtomic(t types.Type) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync/atomic" {
		return false
	}
	return hotAtomicTypes[n.Obj().Name()]
}

func fieldSize(pass *Pass, t types.Type) (size int64) {
	if t == nil {
		return 0
	}
	// Sizeof panics on type parameters and other unsized types
	// (encountered when a build driver feeds generic code through the
	// suite); treat those as size 0 — they are never padding.
	defer func() {
		if recover() != nil {
			size = 0
		}
	}()
	return pass.Sizes.Sizeof(t)
}
