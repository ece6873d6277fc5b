package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// PastSched flags Schedule/Reschedule call sites whose tick argument is
// not provably derived from the current simulation time. Scheduling into
// the past corrupts a calendar queue's bucket invariants — the PR 1 bug
// class — so the runtime panics on it (sim.CalendarQueue.ServiceOne
// "time running backwards"); this analyzer moves the common cases of that
// contract to compile time with a syntactic dataflow over the enclosing
// function.
//
// A tick expression is accepted when it is
//   - a call of a method named Now or CurTick, possibly plus other terms,
//   - a parameter of the enclosing function (wrappers re-delegate the
//     obligation to their callers),
//   - a local variable every assignment of which is itself accepted,
//   - compared against Now() somewhere in the enclosing function (the
//     guard idiom: `if when <= sys.Now() { ...; return }`), or
//   - a non-negative literal inside a Startup method, where sim time is
//     by construction still 0.
//
// Everything else — struct fields, literals, subtraction from Now —
// is reported. The approximation is deliberately local and one-sided:
// it can demand an annotation for safe code (//lint:allow pastsched),
// but accepted code still has the runtime panic behind it.
//
// ScheduleIn and OneShot take a delay, not a tick, and fail the other way
// round: a delay that is itself an absolute tick (Now() or a sum with it,
// directly or through a local) lands the event at twice the current time,
// where no panic catches it. Such a delay is reported; a difference
// (when - Now()) is a delay and is not.
var PastSched = &Analyzer{
	Name: "pastsched",
	Doc: "flag Schedule/Reschedule tick arguments not provably >= the current tick " +
		"(Now()-derived, parameter-forwarded, or Now()-guarded in the enclosing function), " +
		"and ScheduleIn/OneShot delay arguments that are an absolute tick",
	Run: runPastSched,
}

func runPastSched(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkSchedFunc(pass, fd)
			}
		}
	}
	return nil
}

func checkSchedFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if at, ok := delayArg[sel.Sel.Name]; ok {
			if len(call.Args) == at.of && isTickType(pass.TypesInfo.TypeOf(call.Args[at.i])) &&
				absoluteTick(pass, fd, call.Args[at.i], 0) {
				pass.Reportf(call.Args[at.i].Pos(),
					"%s delay argument is an absolute tick (Now()-derived): the event would fire at twice the current time — pass the latency alone, or annotate //lint:allow pastsched <reason>",
					sel.Sel.Name)
			}
			return true
		}
		if sel.Sel.Name != "Schedule" && sel.Sel.Name != "Reschedule" {
			return true
		}
		if len(call.Args) != 2 || !isTickType(pass.TypesInfo.TypeOf(call.Args[1])) {
			return true
		}
		tick := ast.Unparen(call.Args[1])
		if !tickDerived(pass, fd, tick, 0) {
			pass.Reportf(call.Args[1].Pos(),
				"%s tick argument is not provably derived from the current tick (Now()); scheduling into the past corrupts the event queue — derive it from Now(), guard it against Now(), or annotate //lint:allow pastsched <reason>",
				sel.Sel.Name)
		}
		return true
	})
}

// delayArg locates the delay argument of the relative scheduling entry
// points: argument i of a call with exactly of arguments.
var delayArg = map[string]struct{ i, of int }{
	"ScheduleIn": {1, 2},
	"OneShot":    {3, 5},
}

// absoluteTick reports whether e is an absolute tick where a delay belongs:
// a Now()/CurTick() call, a sum with one, or a local assigned only such.
func absoluteTick(pass *Pass, fd *ast.FuncDecl, e ast.Expr, depth int) bool {
	if depth > 8 {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return mentionsNow(e.Fun)
	case *ast.BinaryExpr:
		return e.Op == token.ADD &&
			(absoluteTick(pass, fd, e.X, depth+1) || absoluteTick(pass, fd, e.Y, depth+1))
	case *ast.Ident:
		return assignmentsAll(pass, fd, e, func(rhs ast.Expr) bool { return absoluteTick(pass, fd, rhs, depth+1) })
	}
	return false
}

// isTickType matches the sim.Tick named type (by name and package name, so
// linttest fixtures can supply a stub).
func isTickType(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Name() == "Tick" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "sim"
}

// tickDerived is the accept predicate described on PastSched.
func tickDerived(pass *Pass, fd *ast.FuncDecl, e ast.Expr, depth int) bool {
	if depth > 8 {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Now" || sel.Sel.Name == "CurTick" {
				return true
			}
		}
		return false
	case *ast.BinaryExpr:
		switch e.Op.String() {
		case "+":
			// now + anything: latencies are unsigned by convention; a
			// negative delta is the caller's bug and still panics at run
			// time.
			return tickDerived(pass, fd, e.X, depth+1) || tickDerived(pass, fd, e.Y, depth+1)
		default:
			// now - x, now * x, ...: can run backwards.
			return false
		}
	case *ast.Ident:
		if isParamOf(pass, fd, e) {
			return true
		}
		if guardedAgainstNow(fd, e) {
			return true
		}
		return assignmentsAll(pass, fd, e, func(rhs ast.Expr) bool { return tickDerived(pass, fd, rhs, depth+1) })
	case *ast.BasicLit:
		return fd.Name.Name == "Startup" && nonNegativeLit(e)
	}
	return false
}

func nonNegativeLit(l *ast.BasicLit) bool {
	v, err := strconv.ParseInt(l.Value, 0, 64)
	return err == nil && v >= 0
}

// isParamOf reports whether id resolves to a parameter of fd.
func isParamOf(pass *Pass, fd *ast.FuncDecl, id *ast.Ident) bool {
	return paramOf(pass, fd.Type.Params, id)
}

// paramOf reports whether id resolves to a parameter in params (of a
// FuncDecl or a FuncLit — closures carry delegated obligations too).
func paramOf(pass *Pass, params *ast.FieldList, id *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || params == nil {
		return false
	}
	for _, field := range params.List {
		for _, name := range field.Names {
			if pass.TypesInfo.Defs[name] == obj {
				return true
			}
		}
	}
	return false
}

// assignmentsAll checks that id has at least one assignment in fd and that
// every assignment's RHS satisfies ok.
func assignmentsAll(pass *Pass, fd *ast.FuncDecl, id *ast.Ident, ok func(rhs ast.Expr) bool) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	found, allOK := false, true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				li, isIdent := lhs.(*ast.Ident)
				if !isIdent || i >= len(n.Rhs) {
					continue
				}
				if pass.TypesInfo.Defs[li] == obj || pass.TypesInfo.Uses[li] == obj {
					found = true
					if !ok(n.Rhs[i]) {
						allOK = false
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.TypesInfo.Defs[name] == obj && i < len(n.Values) {
					found = true
					if !ok(n.Values[i]) {
						allOK = false
					}
				}
			}
		}
		return true
	})
	return found && allOK
}

// guardedAgainstNow reports whether fd contains a comparison between id's
// object and a Now()/CurTick() call — the deschedule-or-fire-immediately
// guard idiom that establishes when >= Now() on the scheduling path.
func guardedAgainstNow(fd *ast.FuncDecl, id *ast.Ident) bool {
	guarded := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op.String() {
		case "<", "<=", ">", ">=":
		default:
			return true
		}
		if (mentionsIdent(be.X, id.Name) && mentionsNow(be.Y)) ||
			(mentionsIdent(be.Y, id.Name) && mentionsNow(be.X)) {
			guarded = true
			return false
		}
		return true
	})
	return guarded
}

func mentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

func mentionsNow(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "Now" || sel.Sel.Name == "CurTick") {
			found = true
		}
		return !found
	})
	return found
}
