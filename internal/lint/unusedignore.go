package lint

import "go/token"

// UnusedIgnore flags //lint:ignore directives that suppressed no
// finding during the run: a stale escape hatch is itself a finding, so
// the exception inventory cannot rot. This is a whole-run check — a
// directive in one package can legitimately be consumed by another
// package's detaint pass — so the per-package Run is a no-op and the
// driver performs the check after every package (fresh or cached) has
// reported which directives it used. It is authoritative only when the
// whole module is analyzed (`./...`); narrower patterns may miss
// cross-package consumers.
//
// Unused-ignore findings are not themselves suppressible, and they are
// never cached: they are recomputed from the global usage set on every
// run.
var UnusedIgnore = &Analyzer{
	Name: "unusedignore",
	Doc:  "//lint:ignore directive that suppresses no finding",
	Run:  func(*Pass) {},
}

// unusedIgnoreFindings computes the whole-run check: every declared
// directive (per target package) minus the globally used set. A
// directive naming an analyzer that is not registered in this run gets
// a distinct message — it is not merely stale, it never could suppress
// anything (typo, or a directive outliving an analyzer rename or
// removal).
func unusedIgnoreFindings(declsByPkg [][]IgnoreRef, used map[IgnoreRef]bool, known map[string]bool) []Finding {
	var out []Finding
	for _, decls := range declsByPkg {
		for _, d := range decls {
			if used[d] {
				continue
			}
			msg := "//lint:ignore " + d.Analyzer + " suppresses no finding; delete the stale directive (or fix what it was meant to excuse)"
			if known != nil && !known[d.Analyzer] {
				msg = "//lint:ignore names unknown analyzer " + d.Analyzer + "; no such analyzer is registered, so the directive can never suppress anything"
			}
			out = append(out, Finding{
				Analyzer: UnusedIgnore.Name,
				Pos:      token.Position{Filename: d.File, Line: d.Line, Column: d.Col},
				Message:  msg,
			})
		}
	}
	return out
}
