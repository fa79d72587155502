package lint

// DimCheck is the v3 successor of unitmix: an interprocedural unit-and-
// dimension inference over the SSA value-flow layer (ssa.go). Strong
// seeds come from //rap:unit annotations on struct fields, var/const
// specs, and function doc lines; weak seeds reuse the v1 name-suffix
// heuristics. Units propagate through assignments, call edges, returns,
// composite literals, and channel sends; `*` and `/` derive product and
// quotient units (bytes ÷ s → bytes/s); `+`, `-`, and comparisons
// between incompatible units are findings, each carrying an example
// flow path. Values flowing into an annotated cell with a different
// unit are findings at the flow site.
var DimCheck = &Analyzer{
	Name: "dimcheck",
	Doc:  "interprocedural unit/dimension mismatches via SSA value flow",
	Run:  runDimCheck,
}

func runDimCheck(p *Pass) {
	facts := p.Prog.dimFacts()
	for _, f := range facts.findings[p.Path] {
		p.Report(f.pos, "%s", f.msg)
	}
}
