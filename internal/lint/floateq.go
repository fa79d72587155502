package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags ==, != and switch on floating-point operands in
// non-test code: exact-bit float comparison silently stops matching
// after any refactor that reorders arithmetic, which is how calibrated
// cost models drift. Compile-time constant comparisons are exempt.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "exact floating-point equality comparison",
	Run:  runFloatEq,
}

func runFloatEq(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if !typeIsFloat(p.Info, n.X) && !typeIsFloat(p.Info, n.Y) {
					return true
				}
				if isConstExpr(p, n.X) && isConstExpr(p, n.Y) {
					return true
				}
				p.Report(n.OpPos, "floating-point %s compares exact bits; use a tolerance, an ordered comparison, or annotate an intentional bit-equality", n.Op)
			case *ast.SwitchStmt:
				if n.Tag != nil && typeIsFloat(p.Info, n.Tag) {
					p.Report(n.Switch, "switch on a floating-point value compares exact bits; use if/else with tolerances")
				}
			}
			return true
		})
	}
}

func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// typeIsFloat reports whether e's type is a floating-point (or complex)
// basic type.
func typeIsFloat(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
