package lint

// UnusedIgnore flags //lint:ignore directives that suppressed no
// finding during the run: a stale escape hatch is itself a finding, so
// the exception inventory cannot rot. This is a whole-run check — a
// directive in one package can legitimately be consumed by another
// package's detaint pass — so the per-package Run is a no-op and
// lint.Run performs the check after every target package has been
// analyzed. It is authoritative only when the whole module is analyzed
// (`./...`); narrower patterns may miss cross-package consumers.
//
// Unused-ignore findings are not themselves suppressible.
var UnusedIgnore = &Analyzer{
	Name: "unusedignore",
	Doc:  "//lint:ignore directive that suppresses no finding",
	Run:  func(*Pass) {},
}

// unusedIgnoreFindings computes the whole-run check once every pass of
// the run has marked the directives it used: each well-formed directive
// in the target packages that no pass used is reported. A directive
// naming an analyzer that is not among analyzers gets a distinct
// message — it is not merely stale, it never could suppress anything
// (typo, or a directive outliving an analyzer rename or removal).
func (prog *Program) unusedIgnoreFindings(targets []*Package, analyzers []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Finding
	for _, pkg := range targets {
		for _, d := range prog.ignores[pkg.Path].all {
			if d.used {
				continue
			}
			msg := "//lint:ignore " + d.analyzer + " suppresses no finding; delete the stale directive (or fix what it was meant to excuse)"
			if !known[d.analyzer] {
				msg = "//lint:ignore names unknown analyzer " + d.analyzer + "; no such analyzer is registered, so the directive can never suppress anything"
			}
			out = append(out, Finding{Analyzer: UnusedIgnore.Name, Pos: d.pos, Message: msg})
		}
	}
	return out
}
