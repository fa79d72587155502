package lint

import (
	"fmt"
	"go/ast"
	"go/token"
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

// wallClockFuncs read the wall clock or fire on it, which no simulated
// timeline may depend on.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true,
}

// finding is one seededrand violation.
type finding struct {
	pos token.Position
	msg string
}

func (f finding) String() string { return fmt.Sprintf("%s: %s", f.pos, f.msg) }

// seededRand returns pkg's uses of global math/rand state and of the
// wall clock in source order. Only internal (simulator/planner)
// packages are in scope. Each selector is resolved through the type
// checker, so a renamed import is caught and a local variable named
// rand or time is not.
func seededRand(pkg *Package) []finding {
	if !isInternalPath(pkg.Path) {
		return nil
	}
	var out []finding
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pkg.Info.Uses[x].(*types.PkgName)
			if !ok {
				return true
			}
			var msg string
			switch pn.Imported().Path() {
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[sel.Sel.Name] {
					msg = fmt.Sprintf("%s.%s draws from the shared global source; inject a seeded *rand.Rand instead", x.Name, sel.Sel.Name)
				}
			case "time":
				if wallClockFuncs[sel.Sel.Name] {
					msg = fmt.Sprintf("time.%s depends on the wall clock in simulator/planner code; pass timestamps or a clock in from the caller", sel.Sel.Name)
				}
			}
			if msg != "" {
				out = append(out, finding{pkg.Fset.Position(sel.Pos()), msg})
			}
			return true
		})
	}
	return out
}

// isInternalPath reports whether an import path is module-internal
// library code — the scope of seededrand.
func isInternalPath(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}
