package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatReduce flags floating-point accumulations whose completion or
// arrival order is not statically deterministic — the reassociation
// hazard golden digests only catch after the fact. Two shapes (map-range
// sums are maporder's: it flags every float accumulation in a map body):
//
//   - goroutine reductions: a float accumulation into a variable
//     captured from the enclosing function inside a `go func(){…}()` or
//     errgroup-style `x.Go(func(){…})` closure — completion order is
//     scheduler-dependent even when every write holds a mutex;
//   - channel drains: float accumulation of values received from a
//     channel that multiple loop-launched goroutines send to — arrival
//     order interleaves nondeterministically.
//
// Deterministic reductions (per-worker partials merged in index order,
// sorted-key iteration) pass; intentional sites carry //lint:ignore
// floatreduce with a reason.
var FloatReduce = &Analyzer{
	Name: "floatreduce",
	Doc:  "floating-point accumulation in a nondeterministic order",
	Run:  runFloatReduce,
}

func runFloatReduce(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFloatReduce(p, fd)
			}
		}
	}
}

func checkFloatReduce(p *Pass, fd *ast.FuncDecl) {
	var loops []ast.Node
	type launch struct {
		lit    *ast.FuncLit
		inLoop bool
		// idxVars holds the per-iteration variables of the loops
		// enclosing the launch site: a cell indexed by one of them is
		// private to this worker, not shared state.
		idxVars map[types.Object]bool
	}
	var launches []launch
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, n)
		case *ast.RangeStmt:
			loops = append(loops, n)
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				launches = append(launches, launch{lit, inAnyLoop(loops, n.Pos()), loopIndexVars(p, loops, n.Pos())})
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Go" && len(n.Args) >= 1 {
				if lit, ok := n.Args[0].(*ast.FuncLit); ok {
					launches = append(launches, launch{lit, inAnyLoop(loops, n.Pos()), loopIndexVars(p, loops, n.Pos())})
				}
			}
		}
		return true
	})

	// Channels fed by more than one concurrently running sender: any
	// goroutine launched inside a loop that sends on them.
	multiSend := map[types.Object]bool{}
	for _, l := range launches {
		if !l.inLoop {
			continue
		}
		ast.Inspect(l.lit.Body, func(n ast.Node) bool {
			if s, ok := n.(*ast.SendStmt); ok {
				if obj := chanObj(p, s.Chan); obj != nil {
					multiSend[obj] = true
				}
			}
			return true
		})
	}

	// Goroutine reductions: float accumulation into captured state.
	for _, l := range launches {
		lit := l.lit
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			target, op := floatAccumTarget(p, as)
			if target == nil {
				return true
			}
			// Per-worker partials: `parts[w] += …` where w is the
			// launching loop's variable writes a cell no other worker
			// touches — the deterministic pattern the message
			// recommends, so stay silent.
			if ix, ok := ast.Unparen(target).(*ast.IndexExpr); ok && l.idxVars[objOf2(p, ix.Index)] {
				return true
			}
			v := baseVar(p, target)
			if v == nil || within(lit, v.Pos()) {
				return true
			}
			p.Report(as.TokPos, "goroutine accumulates float %q with %s into shared state; completion order is scheduler-dependent and float addition does not reassociate — accumulate per-worker partials and reduce in a fixed order", v.Name(), op)
			return true
		})
	}

	// Range-over-channel drains.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		// Only channels are sent to, so a multiSend object is one.
		if obj := chanObj(p, rs.X); obj != nil && multiSend[obj] {
			reportRangeAccums(p, rs)
		}
		return true
	})

	// Receive-in-loop drains: `sum += <-ch` inside a for loop.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		target, op := floatAccumTarget(p, as)
		if target == nil || !inAnyLoop(loops, as.Pos()) {
			return true
		}
		for _, r := range as.Rhs {
			recv := receivedChan(p, r)
			if recv != nil && multiSend[recv] {
				p.Report(as.TokPos, "float accumulation with %s of values received from a channel with concurrent senders; receive order is scheduler-dependent — collect into an indexed slice and reduce in a fixed order", op)
				break
			}
		}
		return true
	})
}

// reportRangeAccums reports every float accumulation in a
// range-over-channel body whose accumulator outlives the loop.
func reportRangeAccums(p *Pass, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		target, op := floatAccumTarget(p, as)
		if target == nil {
			return true
		}
		v := baseVar(p, target)
		if v == nil || within(rs.Body, v.Pos()) {
			return true
		}
		p.Report(as.TokPos, "float accumulation with %s while receive order from concurrent senders is scheduler-dependent; collect into an indexed slice and reduce in a fixed order", op)
		return true
	})
}

// objOf2 resolves an expression to its object when it is a plain
// identifier, or nil.
func objOf2(p *Pass, e ast.Expr) types.Object {
	if e == nil {
		return nil
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return objOf(p, id)
}

// floatAccumTarget returns the accumulated lvalue and the operator when
// as is a float accumulation: a compound `+=`/`-=`/`*=`/`/=`, or the
// spelled-out `x = x + v` form.
func floatAccumTarget(p *Pass, as *ast.AssignStmt) (ast.Expr, string) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, ""
	}
	lhs := as.Lhs[0]
	if !typeIsFloat(p.Info, lhs) {
		return nil, ""
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return lhs, as.Tok.String()
	case token.ASSIGN:
		be, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok {
			return nil, ""
		}
		switch be.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return nil, ""
		}
		if sameLvalue(p, lhs, be.X) || be.Op == token.ADD && sameLvalue(p, lhs, be.Y) {
			return lhs, be.Op.String() + "="
		}
	}
	return nil, ""
}

// sameLvalue reports whether two expressions statically name the same
// variable or field chain.
func sameLvalue(p *Pass, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch a := a.(type) {
	case *ast.Ident:
		bi, ok := b.(*ast.Ident)
		return ok && objOf(p, a) != nil && objOf(p, a) == objOf(p, bi)
	case *ast.SelectorExpr:
		bs, ok := b.(*ast.SelectorExpr)
		return ok && objOf(p, a.Sel) == objOf(p, bs.Sel) && sameLvalue(p, a.X, bs.X)
	}
	return false
}

func objOf(p *Pass, id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// baseVar resolves an accumulation target to its base variable: the
// identifier itself, or the root of a selector/index/star chain.
func baseVar(p *Pass, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := objOf(p, x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// chanObj resolves a channel expression to its variable, or nil.
func chanObj(p *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return objOf(p, e)
	case *ast.SelectorExpr:
		return objOf(p, e.Sel)
	}
	return nil
}

// receivedChan returns the channel object when e contains a receive
// expression (`<-ch`, possibly inside arithmetic), or nil.
func receivedChan(p *Pass, e ast.Expr) types.Object {
	var found types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW && found == nil {
			found = chanObj(p, u.X)
		}
		return found == nil
	})
	return found
}

// loopIndexVars collects the per-iteration variables of every loop
// enclosing pos: the range key/value, and identifiers defined in a for
// statement's init clause.
func loopIndexVars(p *Pass, loops []ast.Node, pos token.Pos) map[types.Object]bool {
	vars := map[types.Object]bool{}
	for _, l := range loops {
		if !within(l, pos) {
			continue
		}
		switch l := l.(type) {
		case *ast.RangeStmt:
			if o := objOf2(p, l.Key); o != nil {
				vars[o] = true
			}
			if o := objOf2(p, l.Value); o != nil {
				vars[o] = true
			}
		case *ast.ForStmt:
			if as, ok := l.Init.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if o := objOf2(p, lhs); o != nil {
						vars[o] = true
					}
				}
			}
		}
	}
	return vars
}

// within reports whether pos falls inside n's source range.
func within(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

// inAnyLoop reports whether pos falls inside one of the collected loop
// nodes.
func inAnyLoop(loops []ast.Node, pos token.Pos) bool {
	for _, l := range loops {
		if within(l, pos) {
			return true
		}
	}
	return false
}
