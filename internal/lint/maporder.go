package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `for range` over maps, in every package, when the loop
// body's effects can depend on iteration order. Bodies restricted to
// sorted-key extraction (`keys = append(keys, k)`), per-key writes
// (`m2[k] = v`, `delete(m2, k)`), and exactly commutative integer
// reductions (`n += v`, `n++`) are allowed; anything else — including
// float accumulation, whose rounding is order-dependent — must iterate
// sorted keys or carry a //lint:ignore with a reason. The rule is
// local: a helper that leaks map order is reported at its own range
// statement, whichever package calls it.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration whose effects depend on iteration order",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			key := identName(rs.Key)
			if stmtsOrderInsensitive(p.Info, rs.Body.List, key) {
				return true
			}
			p.Report(rs.For, "map iteration order can leak into results; iterate sorted keys, or keep the body to key collection / per-key writes / integer reductions")
			return true
		})
	}
}

func stmtsOrderInsensitive(info *types.Info, stmts []ast.Stmt, key string) bool {
	for _, s := range stmts {
		if !stmtOrderInsensitive(info, s, key) {
			return false
		}
	}
	return true
}

// stmtOrderInsensitive reports whether executing s once per map entry
// yields the same program state regardless of entry order.
func stmtOrderInsensitive(info *types.Info, s ast.Stmt, key string) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		// n++ / n-- applies the identical delta every iteration.
		return true
	case *ast.AssignStmt:
		return assignOrderInsensitive(info, s, key)
	case *ast.IfStmt:
		if s.Init != nil && !stmtOrderInsensitive(info, s.Init, key) {
			return false
		}
		if !exprPure(info, s.Cond) || !stmtsOrderInsensitive(info, s.Body.List, key) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return stmtsOrderInsensitive(info, e.List, key)
		case *ast.IfStmt:
			return stmtOrderInsensitive(info, e, key)
		}
		return false
	case *ast.BlockStmt:
		return stmtsOrderInsensitive(info, s.List, key)
	case *ast.BranchStmt:
		// `continue` skips an entry the same way in any order; `break`
		// and labeled jumps make the outcome depend on what came first.
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.ExprStmt:
		// delete(m2, k) keyed by the range key touches disjoint entries.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" &&
				len(call.Args) == 2 && key != "" && identName(call.Args[1]) == key {
				return true
			}
		}
	}
	return false
}

func assignOrderInsensitive(info *types.Info, s *ast.AssignStmt, key string) bool {
	switch s.Tok {
	case token.DEFINE:
		// Fresh locals live for one iteration only; safe when the RHS is
		// side-effect free.
		for _, r := range s.Rhs {
			if !exprPure(info, r) {
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		// Exactly commutative over integers only: float rounding makes
		// `sum += v` depend on visit order.
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 || !exprPure(info, s.Rhs[0]) {
			return false
		}
		t := info.TypeOf(s.Lhs[0])
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	case token.ASSIGN:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		// m2[k] = v: per-key writes touch disjoint locations.
		if ix, ok := s.Lhs[0].(*ast.IndexExpr); ok && key != "" && identName(ix.Index) == key {
			return exprPure(info, s.Rhs[0])
		}
		// keys = append(keys, k): sorted-key extraction.
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" &&
				len(call.Args) == 2 && !call.Ellipsis.IsValid() &&
				key != "" && identName(call.Args[1]) == key {
				target := identName(s.Lhs[0])
				return target != "" && target == identName(call.Args[0])
			}
		}
	}
	return false
}

// exprPure reports whether evaluating e has no side effects (so it may
// run once per map entry in any order). Type conversions of a pure
// operand and len/cap/min/max of pure arguments are pure; every other
// call is conservatively impure.
func exprPure(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.SelectorExpr:
		return exprPure(info, e.X)
	case *ast.IndexExpr:
		return exprPure(info, e.X) && exprPure(info, e.Index)
	case *ast.ParenExpr:
		return exprPure(info, e.X)
	case *ast.StarExpr:
		return exprPure(info, e.X)
	case *ast.UnaryExpr:
		return e.Op != token.AND && exprPure(info, e.X)
	case *ast.BinaryExpr:
		return exprPure(info, e.X) && exprPure(info, e.Y)
	case *ast.TypeAssertExpr:
		return exprPure(info, e.X)
	case *ast.CallExpr:
		if info.Types[e.Fun].IsType() {
			return len(e.Args) == 1 && exprPure(info, e.Args[0])
		}
		id, ok := e.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		switch id.Name {
		case "len", "cap", "min", "max":
			for _, a := range e.Args {
				if !exprPure(info, a) {
					return false
				}
			}
			return true
		}
	}
	return false
}
