package lint

// The three interprocedural analyzers. All real work happens in the
// shared engine (interproc.go); each analyzer filters the memoized
// IPResult by finding kind and renders messages, so the ordinary
// per-analyzer suppression machinery (//lint:allow detflow …) applies at
// the reported position.

// Detflow reports host nondeterminism — map iteration order, wall-clock
// time, global rand, environment reads, formatted pointers — flowing
// interprocedurally into a determinism-critical sink: stat registration,
// the trace arena, checkpoint encoders, or report writers. It subsumes
// the cross-call blind spot of detmap and nowallclock: taint survives any
// number of hops through helpers, closures, and struct fields within the
// module.
var Detflow = &Analyzer{
	Name: "detflow",
	Doc:  "nondeterministic value (map order, wall clock, rand, env, %p) reaches a stat, trace, checkpoint, or report sink",
	Run:  runDetflow,
}

// FloatOrder reports float accumulation whose iteration order is not
// provably deterministic — the Fig. 15 bug class (a map-range float sum
// made the Frac column host-dependent). Unlike detmap it ignores
// //lint:deterministic: that annotation claims the loop commutes, which
// float addition does not. Only //lint:allow floatorder waives it.
var FloatOrder = &Analyzer{
	Name: "floatorder",
	Doc:  "float accumulation ordered by map iteration; float addition does not commute",
	Run:  runFloatOrder,
}

// ShardEscape reports mutable state reachable from more than one sim
// shard domain without passing through the System mailbox or a barrier
// merge — the static happens-before complement to the race job. State is
// seeded from DomainView roots and EventDomain tags: the memory shard is
// the one worker goroutine, every other domain runs on the coordinator.
var ShardEscape = &Analyzer{
	Name: "shardescape",
	Doc:  "mutable state shared across shard domains without a mailbox crossing",
	Run:  runShardEscape,
}

func runDetflow(p *Pass) error {
	for _, f := range ipFindings(p) {
		if f.Kind != "sink" {
			continue
		}
		p.Reportf(f.Pos, "value derived from %s reaches %s (%s); derive it from sim time/seed or sort before emitting",
			classNoun(f.Class), sinkNoun(f.Sink), f.Detail)
	}
	return nil
}

func runFloatOrder(p *Pass) error {
	for _, f := range ipFindings(p) {
		if f.Kind != "floatsum" {
			continue
		}
		detail := ""
		if f.Detail != "" {
			detail = " (via " + f.Detail + ")"
		}
		p.Reportf(f.Pos, "float accumulation ordered by map iteration%s; float addition does not commute, sort the keys first", detail)
	}
	return nil
}

func runShardEscape(p *Pass) error {
	for _, f := range ipFindings(p) {
		switch f.Kind {
		case "domjoin":
			p.Reportf(f.Pos, "%s is reachable from both the mem shard and a coordinator-side domain; share it through the System mailbox or a barrier merge", f.Detail)
		case "domglobal":
			p.Reportf(f.Pos, "mem-side method writes package-level %s, racing coordinator-side shards; post through the System mailbox instead", f.Detail)
		case "domcall":
			p.Reportf(f.Pos, "direct call of %s crosses shard domains; post an event through the System mailbox instead", f.Detail)
		}
	}
	return nil
}

// ipFindings returns the package's engine findings, or nil when the
// driver provided no engine (p.IP unset) or the package is out of scope.
func ipFindings(p *Pass) []IPFinding {
	if p.IP == nil || !pkgScope(p) {
		return nil
	}
	return p.IP.Result().Findings
}
