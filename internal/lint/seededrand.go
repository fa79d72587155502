package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// globalRandFuncs are the math/rand and math/rand/v2 package-level
// functions backed by the shared (goroutine-mixed, unseedable-in-v2)
// global source. Constructors like New, NewSource, NewPCG and NewZipf
// are allowed: they are exactly how an injected *rand.Rand is built.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "IntN": true, "Int32": true,
	"Int32N": true, "Int64": true, "Int64N": true, "N": true,
	"Uint": true, "UintN": true, "Uint32": true, "Uint32N": true,
	"Uint64": true, "Uint64N": true, "Float32": true, "Float64": true,
	"Perm": true, "Shuffle": true, "Seed": true,
	"NormFloat64": true, "ExpFloat64": true, "Read": true,
}

// wallClockFuncs read the wall clock, which no simulated timeline may
// depend on.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// SeededRand forbids global math/rand state and wall-clock reads in
// internal (simulator/planner) packages: randomness must flow through
// an injected, seeded *rand.Rand and time through simulated clocks, or
// two runs of the same configuration diverge.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc:  "global math/rand or wall-clock use in simulator/planner code",
	Run:  runSeededRand,
}

func runSeededRand(p *Pass) {
	if !isInternalPath(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Info.Uses[x].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[sel.Sel.Name] {
					p.Report(sel.Pos(), "%s.%s draws from the shared global source; inject a seeded *rand.Rand instead", x.Name, sel.Sel.Name)
				}
			case "time":
				if wallClockFuncs[sel.Sel.Name] {
					p.Report(sel.Pos(), "time.%s reads the wall clock in simulator/planner code; pass timestamps or a clock in from the caller", sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// isInternalPath reports whether an import path is module-internal
// library code — the scope of the seededrand analyzer.
func isInternalPath(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}
