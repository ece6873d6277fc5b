package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// SinkDiscipline keeps hostmodel.Sink and the 32-byte ring.Record trace
// format in lockstep, so the pipelined co-simulation can never silently
// drop a class of micro-event (which would make pipelined and serial runs
// diverge only under -pipeline, the worst kind of heisen-divergence).
// Per package it checks, whichever of these apply:
//
//   - record format (the package that declares ring.Op/ring.Record):
//     Record must stay exactly 32 bytes under gc/amd64 sizes and hold no
//     pointers (it crosses goroutines by value in bulk batches);
//   - encoder coverage (any package building ring.Record literals, i.e.
//     the RingSink side): the Op constants used across those literals
//     must cover every declared Op — a Sink method without an encoding
//     is a record kind that exists only on the serial path;
//   - decoder exhaustiveness (any switch over a ring.Op value, i.e. the
//     uarch.ApplyBatch side): every declared Op constant needs a case
//     (or an explicit default) — a missing case drops records silently;
//   - interface lockstep (the package declaring a Sink interface next to
//     record encoders): Sink must have exactly one method per Op
//     constant, matched by name (OpFetch <-> FetchBlock, OpBranch <->
//     Branch, OpData <-> Data).
var SinkDiscipline = &Analyzer{
	Name: "sinkdiscipline",
	Doc: "keep hostmodel.Sink, the 32-byte ring.Record format, its encoders and its " +
		"switch-based decoders in lockstep",
	Run: runSinkDiscipline,
}

func runSinkDiscipline(pass *Pass) error {
	ringPkg := findRingPkg(pass)
	if ringPkg == nil {
		return nil
	}
	opType, recordType := ringTypes(ringPkg)
	if opType == nil {
		return nil
	}
	opNames := opConstants(ringPkg, opType)
	if len(opNames) == 0 {
		return nil
	}

	if ringPkg == pass.Pkg && recordType != nil {
		checkRecordFormat(pass, recordType)
	}
	checkEncoderCoverage(pass, recordType, opType, opNames)
	checkDecoderExhaustive(pass, opType, opNames)
	checkHandlerTables(pass, opType, opNames)
	checkSinkLockstep(pass, opNames)
	return nil
}

// findRingPkg locates the trace-record package: the package under
// analysis itself, or one of its direct imports, whose package name is
// "ring" and which declares an Op type.
func findRingPkg(pass *Pass) *types.Package {
	candidates := append([]*types.Package{pass.Pkg}, pass.Pkg.Imports()...)
	for _, p := range candidates {
		if p.Name() == "ring" {
			if obj := p.Scope().Lookup("Op"); obj != nil {
				if _, ok := obj.(*types.TypeName); ok {
					return p
				}
			}
		}
	}
	return nil
}

func ringTypes(ringPkg *types.Package) (op, record types.Type) {
	if o, ok := ringPkg.Scope().Lookup("Op").(*types.TypeName); ok {
		op = o.Type()
	}
	if r, ok := ringPkg.Scope().Lookup("Record").(*types.TypeName); ok {
		record = r.Type()
	}
	return op, record
}

// opConstants returns the names of ringPkg's Op-typed constants, in
// declaration-value order.
func opConstants(ringPkg *types.Package, opType types.Type) []string {
	var names []string
	scope := ringPkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if ok && types.Identical(c.Type(), opType) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// checkRecordFormat enforces the 32-byte pointer-free record contract in
// the declaring package.
func checkRecordFormat(pass *Pass, recordType types.Type) {
	pos := pass.Pkg.Scope().Lookup("Record").Pos()
	st, ok := recordType.Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(pos, "ring.Record must be a struct (the batched trace-record format)")
		return
	}
	if size := pass.Sizes.Sizeof(recordType); size != 32 {
		pass.Reportf(pos,
			"ring.Record is %d bytes under gc/amd64, not 32: the batch geometry (512 records = 16KiB per slot) and every size comment depend on the 32-byte format", size)
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if hasPointers(f.Type()) {
			pass.Reportf(pos,
				"ring.Record field %s contains pointers; records cross goroutines by value in bulk and must stay pointer-free", f.Name())
		}
	}
}

func hasPointers(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.String || u.Kind() == types.UnsafePointer
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Array:
		return hasPointers(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasPointers(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// checkEncoderCoverage: if this package builds ring.Record literals, the
// set of Op constants in them must cover every declared Op.
func checkEncoderCoverage(pass *Pass, recordType, opType types.Type, opNames []string) {
	if recordType == nil {
		return
	}
	used := make(map[string]bool)
	var firstLit ast.Node
	inspect(pass, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(cl)
		if t == nil || !types.Identical(t, recordType) {
			return true
		}
		if firstLit == nil {
			firstLit = cl
		}
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Op" {
				continue
			}
			for _, c := range constNamesIn(pass, kv.Value, opType) {
				used[c] = true
			}
		}
		return true
	})
	if firstLit == nil {
		return
	}
	if missing := missingFrom(opNames, used); len(missing) > 0 {
		pass.Reportf(firstLit.Pos(),
			"this package encodes ring.Records but never emits %s: a Sink event class exists that the pipelined path cannot carry (serial and pipelined runs will diverge)",
			strings.Join(missing, ", "))
	}
}

// checkDecoderExhaustive: every switch over a ring.Op value must cover
// every Op constant or declare a default.
func checkDecoderExhaustive(pass *Pass, opType types.Type, opNames []string) {
	inspect(pass, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		tagType := pass.TypesInfo.TypeOf(sw.Tag)
		if tagType == nil || !types.Identical(tagType, opType) {
			return true
		}
		covered := make(map[string]bool)
		hasDefault := false
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				for _, c := range constNamesIn(pass, e, opType) {
					covered[c] = true
				}
			}
		}
		if hasDefault {
			return true
		}
		if missing := missingFrom(opNames, covered); len(missing) > 0 {
			pass.Reportf(sw.Pos(),
				"switch over ring.Op has no case for %s and no default: records of that kind are dropped silently on the pipelined path",
				strings.Join(missing, ", "))
		}
		return true
	})
}

// checkHandlerTables: a populated map literal keyed by ring.Op — the
// callback-table form of a decoder (map[ring.Op]func(...), handlers
// bound as closures or method values) — must cover every Op constant.
// A missing key is a nil handler: the callback-shaped version of a
// switch without a case, dropping records just as silently. Empty
// literals are exempt (tables filled dynamically register their
// handlers elsewhere).
func checkHandlerTables(pass *Pass, opType types.Type, opNames []string) {
	inspect(pass, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok || len(cl.Elts) == 0 {
			return true
		}
		t := pass.TypesInfo.TypeOf(cl)
		if t == nil {
			return true
		}
		m, ok := t.Underlying().(*types.Map)
		if !ok || !types.Identical(m.Key(), opType) {
			return true
		}
		covered := make(map[string]bool)
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			for _, c := range constNamesIn(pass, kv.Key, opType) {
				covered[c] = true
			}
		}
		if missing := missingFrom(opNames, covered); len(missing) > 0 {
			pass.Reportf(cl.Pos(),
				"ring.Op handler table has no entry for %s: records of that kind hit a nil handler on the pipelined path",
				strings.Join(missing, ", "))
		}
		return true
	})
}

// checkSinkLockstep: a Sink interface declared in this package must have
// exactly one method per Op constant, matched by name prefix
// (OpFetch <-> FetchBlock).
func checkSinkLockstep(pass *Pass, opNames []string) {
	obj, ok := pass.Pkg.Scope().Lookup("Sink").(*types.TypeName)
	if !ok {
		return
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	matched := make(map[string]bool)
	for i := 0; i < iface.NumExplicitMethods(); i++ {
		m := iface.ExplicitMethod(i)
		op := opForMethod(m.Name(), opNames)
		if op == "" {
			pass.Reportf(m.Pos(),
				"Sink method %s has no corresponding ring.Op constant (expected Op<prefix of %s>): the record format cannot carry this event — add the Op and its encoder/decoder in the same change",
				m.Name(), m.Name())
			continue
		}
		matched[op] = true
	}
	if missing := missingFrom(opNames, matched); len(missing) > 0 {
		pass.Reportf(obj.Pos(),
			"ring.Op constants %s have no corresponding Sink method: the record format carries events the Sink interface cannot deliver",
			strings.Join(missing, ", "))
	}
}

// opForMethod finds the Op constant matching a Sink method name:
// "Op"+P for some non-empty prefix P of the method name.
func opForMethod(method string, opNames []string) string {
	best := ""
	for _, op := range opNames {
		p := strings.TrimPrefix(op, "Op")
		if p != "" && strings.HasPrefix(method, p) && len(p) > len(strings.TrimPrefix(best, "Op")) {
			best = op
		}
	}
	return best
}

// constNamesIn returns the names of opType constants referenced in e.
func constNamesIn(pass *Pass, e ast.Expr, opType types.Type) []string {
	var out []string
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		c, ok := pass.TypesInfo.Uses[id].(*types.Const)
		if ok && types.Identical(c.Type(), opType) {
			out = append(out, c.Name())
		}
		return true
	})
	return out
}

func missingFrom(all []string, have map[string]bool) []string {
	var missing []string
	for _, name := range all {
		if !have[name] {
			missing = append(missing, name)
		}
	}
	return missing
}
