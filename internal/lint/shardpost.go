package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShardPost enforces the scheduling discipline of sharded execution
// (sim.System.EnableSharding). Three rules:
//
//  1. Outside package sim, events must be scheduled through a System
//     (Schedule/ScheduleIn/Reschedule/OneShot), never directly on a Queue backend
//     (sys.Queue().Schedule(...)). The System is where cross-domain events
//     are routed into the engine's mailboxes; a direct queue insert lands
//     the event on the caller's shard regardless of its domain, silently
//     breaking bit-identity — and only under sharding, which is the worst
//     way to find out. Package sim itself (queue internals, the shard
//     engine, their tests) is exempt.
//
//  2. The Quantum and BusLookahead fields passed to EnableSharding must be
//     provably derived from sim.QuantumFor — a call of it, a parameter of
//     the enclosing function (wrappers re-delegate the obligation), or a
//     local whose assignments all derive. QuantumFor is where the
//     conservative-barrier safety argument lives (each direction's floor
//     <= the minimum latency crossing in that direction); a raw constant may
//     be silently larger than a latency someone later tunes down, and the
//     runtime's floor-violation panic would then fire deep in a run
//     instead of the mistake being visible at the call site. A literal zero
//     is also accepted: a zero floor grants nothing, which is always safe
//     (and for Quantum the runtime rejects it at startup).
//
//  3. Rule 2 seen from the posting side. System.OneShot names its target
//     domain at the call, so a one-shot addressed to the constant DomainMem
//     is visibly a post over the cpu-to-mem edge, whose BusLookahead floor
//     its delay must reach. The floor is QuantumFor of a configured latency;
//     a delay that is a compile-time constant cannot follow that latency when
//     someone tunes it up, and the floor-violation panic would again fire
//     deep in a run. The delay must be a value (a config field, a parameter,
//     a sum with one).
//
// All three rules are syntactic and one-sided: safe-but-unprovable code can
// be annotated with //lint:allow shardpost <reason>.
var ShardPost = &Analyzer{
	Name: "shardpost",
	Doc: "flag direct Queue scheduling outside package sim (bypasses cross-shard mailbox " +
		"routing), EnableSharding lookahead floors (Quantum, BusLookahead) not provably " +
		"derived from sim.QuantumFor, and constant delays on one-shots posted to DomainMem",
	Run: runShardPost,
}

// fnScope is the function whose parameters carry delegated provenance
// obligations: a FuncDecl, or — for callbacks — the innermost enclosing
// FuncLit. Rule 2's "take it as a parameter" escape must resolve against
// the closure actually receiving the value, not the declaration it
// happens to be nested in.
type fnScope struct {
	params *ast.FieldList
	body   *ast.BlockStmt
}

func runShardPost(pass *Pass) error {
	if !pkgScope(pass) {
		return nil
	}
	inSim := pass.Pkg.Path() == "gem5prof/internal/sim" ||
		strings.HasSuffix(pass.Pkg.Path(), "/internal/sim")
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					shardPostWalk(pass, inSim, fnScope{d.Type.Params, d.Body}, d.Body)
				}
			case *ast.GenDecl:
				// Package-level callback hooks: var hook = func(...) {...}.
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, v := range vs.Values {
						ast.Inspect(v, func(n ast.Node) bool {
							if fl, ok := n.(*ast.FuncLit); ok {
								shardPostWalk(pass, inSim, fnScope{fl.Type.Params, fl.Body}, fl.Body)
								return false
							}
							return true
						})
					}
				}
			}
		}
	}
	return nil
}

// shardPostWalk checks one function body, recursing into nested function
// literals with their own scope (their parameters, not the outer
// function's, absorb delegated quanta).
func shardPostWalk(pass *Pass, inSim bool, sc fnScope, body *ast.BlockStmt) {
	// Selectors in call position — everything else selecting a queue
	// method is a captured method value.
	callFuns := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			callFuns[ast.Unparen(c.Fun)] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			shardPostWalk(pass, inSim, fnScope{n.Type.Params, n.Body}, n.Body)
			return false
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !inSim {
				checkQueuePost(pass, n, sel)
			}
			if sel.Sel.Name == "EnableSharding" && len(n.Args) == 1 {
				checkQuantum(pass, sc, n)
			}
			if sel.Sel.Name == "OneShot" && len(n.Args) == 5 {
				checkOneShotDelay(pass, n)
			}
		case *ast.SelectorExpr:
			if !inSim && !callFuns[n] {
				checkQueueMethodValue(pass, n)
			}
		}
		return true
	})
}

// checkQueueMethodValue flags q.Schedule captured as a value (a callback
// bound to the backend): invoking it later bypasses the System exactly
// like the direct call form, but the old call-site check never saw it.
func checkQueueMethodValue(pass *Pass, sel *ast.SelectorExpr) {
	if sel.Sel.Name != "Schedule" && sel.Sel.Name != "Reschedule" {
		return
	}
	if s, ok := pass.TypesInfo.Selections[sel]; !ok || s.Kind() != types.MethodVal {
		return
	}
	n := namedType(pass.TypesInfo.TypeOf(sel.X))
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Name() != "sim" {
		return
	}
	switch n.Obj().Name() {
	case "Queue", "HeapQueue", "CalendarQueue":
		pass.Reportf(sel.Pos(),
			"capturing %s of a sim queue backend as a method value bypasses the System's cross-shard mailbox routing; capture the System's method instead (or annotate //lint:allow shardpost <reason>)",
			sel.Sel.Name)
	}
}

// checkQueuePost flags Schedule/Reschedule called on a sim queue backend
// (the Queue interface or a concrete implementation) rather than a System.
func checkQueuePost(pass *Pass, call *ast.CallExpr, sel *ast.SelectorExpr) {
	if sel.Sel.Name != "Schedule" && sel.Sel.Name != "Reschedule" {
		return
	}
	n := namedType(pass.TypesInfo.TypeOf(sel.X))
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Name() != "sim" {
		return
	}
	switch n.Obj().Name() {
	case "Queue", "HeapQueue", "CalendarQueue":
		pass.Reportf(call.Pos(),
			"direct %s on a sim queue backend bypasses the System's cross-shard mailbox routing; schedule through the System (or annotate //lint:allow shardpost <reason>)",
			sel.Sel.Name)
	}
}

// checkOneShotDelay is rule 3: name, fn, domain, delay, fire.
func checkOneShotDelay(pass *Pass, call *ast.CallExpr) {
	if !isDomainMem(pass.TypesInfo, call.Args[2]) {
		return
	}
	if tv, ok := pass.TypesInfo.Types[call.Args[3]]; ok && tv.Value != nil {
		pass.Reportf(call.Args[3].Pos(),
			"OneShot to DomainMem crosses the cpu-to-mem edge with a constant delay; the edge's BusLookahead floor follows a configured latency — take the delay from that latency, or annotate //lint:allow shardpost <reason>")
	}
}

// isDomainMem reports whether e denotes the constant sim.DomainMem, bare or
// package-qualified.
func isDomainMem(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || c.Name() != "DomainMem" {
		return false
	}
	named := namedType(c.Type())
	return named != nil && named.Obj().Name() == "Domain" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "sim"
}

// lookaheadFields are the ShardConfig fields that grant cross-shard
// scheduling slack and therefore carry the rule-2 provenance obligation:
// Quantum floors the mem-to-cpu direction, BusLookahead the cpu-to-mem one.
var lookaheadFields = []string{"Quantum", "BusLookahead"}

// checkQuantum locates each lookahead-floor expression flowing into an
// EnableSharding call and demands QuantumFor provenance.
func checkQuantum(pass *Pass, sc fnScope, call *ast.CallExpr) {
	arg := ast.Unparen(call.Args[0])
	for _, field := range lookaheadFields {
		q, found := quantumExpr(pass, sc, arg, field)
		if !found {
			// Invisibility is a property of the whole config value, not of
			// one field: report it once.
			pass.Reportf(call.Args[0].Pos(),
				"EnableSharding config's Quantum is not visible in this function; derive it with sim.QuantumFor at the call site, take it as a parameter, or annotate //lint:allow shardpost <reason>")
			return
		}
		if q != nil && !quantumDerived(pass, sc, q, 0) {
			pass.Reportf(q.Pos(),
				"EnableSharding %s is not provably derived from sim.QuantumFor; the conservative barrier is only safe for lookahead floors bounded by the minimum latency crossing the edge — derive it with QuantumFor (or use zero) or annotate //lint:allow shardpost <reason>",
				fieldNoun(field))
		}
	}
}

// fieldNoun renders the field name for diagnostics (Quantum keeps its
// historical lowercase spelling so existing annotations and fixtures match).
func fieldNoun(field string) string {
	if field == "Quantum" {
		return "quantum"
	}
	return field
}

// quantumExpr extracts the named lookahead field expression from the
// EnableSharding argument: directly from a composite literal, or from local
// assignments of the config variable (composite-literal RHS or a cfg.<field>
// write). A nil expression with found=true means the value is delegated (the
// arg is a parameter of the enclosing function) or the field is absent (zero
// value: no slack granted, nothing to prove). found=false means the config's
// provenance is not visible in this function at all.
func quantumExpr(pass *Pass, sc fnScope, arg ast.Expr, field string) (ast.Expr, bool) {
	if cl, ok := arg.(*ast.CompositeLit); ok {
		return lookaheadField(cl, field), true
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil, false
	}
	if paramOf(pass, sc.params, id) {
		return nil, true
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil, false
	}
	var q ast.Expr
	found := false
	ast.Inspect(sc.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					continue
				}
				// cfg = sim.ShardConfig{...}
				if li, ok := lhs.(*ast.Ident); ok &&
					(pass.TypesInfo.Defs[li] == obj || pass.TypesInfo.Uses[li] == obj) {
					if cl, ok := ast.Unparen(n.Rhs[i]).(*ast.CompositeLit); ok {
						found = true
						if f := lookaheadField(cl, field); f != nil {
							q = f
						}
					}
				}
				// cfg.<field> = X
				if se, ok := lhs.(*ast.SelectorExpr); ok && se.Sel.Name == field {
					if base, ok := ast.Unparen(se.X).(*ast.Ident); ok && pass.TypesInfo.Uses[base] == obj {
						found = true
						q = n.Rhs[i]
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.TypesInfo.Defs[name] == obj && i < len(n.Values) {
					if cl, ok := ast.Unparen(n.Values[i]).(*ast.CompositeLit); ok {
						found = true
						if f := lookaheadField(cl, field); f != nil {
							q = f
						}
					}
				}
			}
		}
		return true
	})
	return q, found
}

// lookaheadField returns the named field value of a composite literal, nil
// if absent (a zero floor grants no slack; nothing to prove).
func lookaheadField(cl *ast.CompositeLit, field string) ast.Expr {
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if k, ok := kv.Key.(*ast.Ident); ok && k.Name == field {
			return kv.Value
		}
	}
	return nil
}

// quantumDerived is the accept predicate of rule 2.
func quantumDerived(pass *Pass, sc fnScope, e ast.Expr, depth int) bool {
	if depth > 8 {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		// An explicit zero floor grants no scheduling slack: always safe.
		return e.Kind == token.INT && e.Value == "0"
	case *ast.CallExpr:
		name := ""
		switch fn := e.Fun.(type) {
		case *ast.SelectorExpr:
			name = fn.Sel.Name
		case *ast.Ident:
			name = fn.Name
		}
		if name == "QuantumFor" {
			return true
		}
		// A sim.Tick(x) conversion derives iff x does (sim.Tick(0) is the
		// idiomatic spelling of the zero floor).
		if name == "Tick" && len(e.Args) == 1 {
			return quantumDerived(pass, sc, e.Args[0], depth+1)
		}
		return false
	case *ast.Ident:
		if paramOf(pass, sc.params, e) {
			return true
		}
		return quantumAssignmentsDerived(pass, sc, e, depth)
	}
	return false
}

// quantumAssignmentsDerived checks that id has at least one assignment in
// fd and every assignment's RHS is itself QuantumFor-derived.
func quantumAssignmentsDerived(pass *Pass, sc fnScope, id *ast.Ident, depth int) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	found, allOK := false, true
	ast.Inspect(sc.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				li, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if pass.TypesInfo.Defs[li] == obj || pass.TypesInfo.Uses[li] == obj {
					found = true
					if !quantumDerived(pass, sc, n.Rhs[i], depth+1) {
						allOK = false
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.TypesInfo.Defs[name] == obj && i < len(n.Values) {
					found = true
					if !quantumDerived(pass, sc, n.Values[i], depth+1) {
						allOK = false
					}
				}
			}
		}
		return true
	})
	return found && allOK
}
