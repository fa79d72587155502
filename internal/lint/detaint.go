package lint

import "go/token"

// Detaint is the interprocedural determinism checker. Roots — the
// exported functions of the deterministic packages (gpusim, sched,
// mapping, fusion, milp) plus any function annotated
// //rap:deterministic — must be transitively free of wall-clock reads,
// global math/rand draws, and order-dependent map iteration, across
// function and package boundaries. The v1 local analyzers (maporder,
// seededrand) already police their own scopes, so detaint reports only
// the leaks they cannot see: taint sites in packages outside those
// scopes that the call graph proves reachable from a root.
//
// A finding is reported at the taint site with one example call path
// from a root. Suppress with //lint:ignore detaint <reason> at the
// taint site, or on the root's declaration line to exempt that entry
// point entirely.
var Detaint = &Analyzer{
	Name: "detaint",
	Doc:  "nondeterminism reachable from deterministic entry points across calls",
	Run:  runDetaint,
}

func runDetaint(p *Pass) {
	prog := p.Prog
	if prog == nil {
		return
	}
	for _, pos := range prog.misplacedDet[p.Path] {
		p.Report(pos, "//rap:deterministic must be in the doc comment of a function or method declaration")
	}
	// One finding per taint site per package, attributed to the first
	// root (in declaration order) that reaches it.
	seen := map[token.Pos]bool{}
	for _, root := range prog.rootsIn(p.Path) {
		rootPos := p.Fset.Position(root.decl.Name.Pos())
		for _, hit := range prog.reachableTaints(root) {
			if seen[hit.site.pos] || hit.site.locallyCovered() {
				continue
			}
			sitePos := p.Fset.Position(hit.site.pos)
			if d := prog.ignores[hit.site.pkg.Path].covering(p.analyzer.Name, sitePos); d != nil {
				d.used = true
				seen[hit.site.pos] = true
				continue
			}
			if d := p.ignores.covering(p.analyzer.Name, rootPos); d != nil {
				// The root is exempted; other roots may still report.
				d.used = true
				continue
			}
			seen[hit.site.pos] = true
			p.Report(hit.site.pos, "%s must be deterministic but reaches %s (call path: %s)",
				shortFuncName(root.obj), hit.site.desc, pathString(hit.path))
		}
	}
}
