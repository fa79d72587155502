package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicPlain flags objects accessed both through sync/atomic and
// through plain loads/stores: once any access to a word is atomic,
// every access must be, or the atomic calls protect nothing (the race
// detector only catches the interleavings that actually happen; this is
// the static complement). The atomic-access set is interprocedural —
// an address passed to atomic.AddInt64 in a dependency package taints
// the object for every dependent — while plain accesses are reported in
// the package that makes them (the dependency-closure direction).
//
// Suppressed plain accesses: the defining occurrence (initialization
// before the object is shared is the universal idiom), field accesses
// made while holding any mutex (a dominating lock orders them against
// the atomics), bare-identifier accesses in functions that take any
// lock (coarse, but bare-ident atomics are locals and the flow is
// already lock-disciplined), and fields carrying a `// guarded by`
// contract — guardedby already polices those. Typed atomics
// (atomic.Int64 …) are out of scope: the type system forbids plain
// access to them.
var AtomicPlain = &Analyzer{
	Name: "atomicplain",
	Doc:  "object accessed both via sync/atomic and via plain loads/stores",
	Run:  runAtomicPlain,
}

func runAtomicPlain(p *Pass) {
	facts := p.Prog.concFacts()
	closure := facts.depClosure(p.Path)

	// Objects atomically accessed somewhere in this package's closure,
	// each with its first atomic site for the finding text.
	tainted := map[types.Object]atomicUse{}
	for obj, uses := range facts.atomics {
		for _, u := range uses {
			if closure != nil && closure[u.pkg] {
				if cur, ok := tainted[obj]; !ok || u.pos < cur.pos {
					tainted[obj] = u
				}
			}
		}
	}
	if len(tainted) == 0 {
		return
	}

	for _, f := range p.Files {
		// Positions belonging to the atomic calls themselves (&x inside
		// atomic.AddInt64(&x, …)) and to selector Sel identifiers, which
		// the heldWalker pass covers.
		atomicSites := map[token.Pos]bool{}
		selIdents := map[token.Pos]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if atomicArgObject(p.Info, n) != nil {
					u := ast.Unparen(n.Args[0]).(*ast.UnaryExpr)
					atomicSites[ast.Unparen(u.X).Pos()] = true
				}
			case *ast.SelectorExpr:
				selIdents[n.Sel.Pos()] = true
			}
			return true
		})

		report := func(pos token.Pos, obj types.Object) {
			use, ok := tainted[obj]
			if !ok {
				return
			}
			if v, isVar := obj.(*types.Var); isVar && p.Prog.guarded[v] != "" {
				return // guardedby's jurisdiction
			}
			p.Report(pos, "plain access to %q, which is accessed atomically at %s; use sync/atomic consistently or guard both with a mutex",
				obj.Name(), shortPos(p.Fset, use.pos))
		}

		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Field and selector accesses: held-set walk, so accesses
			// under any mutex stay silent.
			w := &heldWalker{
				info: p.Info,
				onSel: func(sel *ast.SelectorExpr, held map[string]bool) {
					if len(held) > 0 || atomicSites[sel.Pos()] {
						return
					}
					if obj := p.Info.Uses[sel.Sel]; obj != nil {
						report(sel.Sel.Pos(), obj)
					}
				},
			}
			w.stmts(fd.Body.List, map[string]bool{})

			// Bare-identifier accesses (locals, package vars). Functions
			// that take any lock are skipped wholesale: the walker has no
			// ident hook, and a lock-taking function is already ordering
			// its accesses.
			if bodyTakesLock(fd.Body) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || atomicSites[id.Pos()] || selIdents[id.Pos()] {
					return true
				}
				if p.Info.Defs[id] != nil {
					return true // defining occurrence: initialization
				}
				if obj, ok := p.Info.Uses[id].(*types.Var); ok && obj != nil {
					report(id.Pos(), obj)
				}
				return true
			})
		}
	}
}

// bodyTakesLock reports whether the body contains any Lock/RLock call.
func bodyTakesLock(body *ast.BlockStmt) bool {
	takes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, name, ok := lockMethod(call); ok && (name == "Lock" || name == "RLock") {
				takes = true
			}
		}
		return !takes
	})
	return takes
}
