package lint

// UnusedIgnore flags //lint:ignore directives that suppressed no
// finding: a stale escape hatch is itself a finding, so the exception
// inventory cannot rot. Every analyzer reads only its own package's
// directives, so the check is per package and exact under any pattern:
// its Run is a no-op, and runPackage reports a package's stale
// directives right after the package's other analyzers have run.
//
// Unused-ignore findings are not themselves suppressible.
var UnusedIgnore = &Analyzer{
	Name: "unusedignore",
	Doc:  "//lint:ignore directive that suppresses no finding",
	Run:  func(*Pass) {},
}

// unused reports each well-formed directive that no pass used. A
// directive naming an analyzer that is not among analyzers gets a
// distinct message — it is not merely stale, it never could suppress
// anything (typo, or a directive outliving an analyzer rename or
// removal).
func (ix *ignoreIndex) unused(analyzers []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Finding
	for _, d := range ix.all {
		if d.used {
			continue
		}
		msg := "//lint:ignore " + d.analyzer + " suppresses no finding; delete the stale directive (or fix what it was meant to excuse)"
		if !known[d.analyzer] {
			msg = "//lint:ignore names unknown analyzer " + d.analyzer + "; no such analyzer is registered, so the directive can never suppress anything"
		}
		out = append(out, Finding{Analyzer: UnusedIgnore.Name, Pos: d.pos, Message: msg})
	}
	return out
}
