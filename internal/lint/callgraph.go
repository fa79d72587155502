package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// deterministicDirective declares (in a function's doc comment) that
// the function must be transitively free of nondeterminism; detaint
// checks the contract against the call graph.
const deterministicDirective = "//rap:deterministic"

// taintSite is one local source of nondeterminism inside a function
// body: a wall-clock read, a draw from the global math/rand source, or
// an order-dependent map iteration.
type taintSite struct {
	pos  token.Pos
	pkg  *Package
	desc string
	// local names the v1 analyzer whose per-package scope already
	// covers this site ("maporder" or "seededrand"); detaint stays
	// silent inside those scopes to avoid double-reporting.
	local string
}

// locallyCovered reports whether the site is already policed by a v1
// local analyzer (either reported by it, or deliberately ignored at the
// site) — in which case detaint has nothing to add.
func (t *taintSite) locallyCovered() bool {
	switch t.local {
	case "maporder":
		return deterministicPkgNames[t.pkg.Name]
	case "seededrand":
		return isInternalPath(t.pkg.Path)
	}
	return false
}

// funcNode is one declared function or method with a body: a call-graph
// vertex carrying its static call edges and local taint sites.
type funcNode struct {
	obj           *types.Func
	decl          *ast.FuncDecl
	pkg           *Package
	deterministic bool          // carries //rap:deterministic in its doc comment
	callees       []*types.Func // static call edges, source order, deduped
	taints        []taintSite
}

// Program is the whole-module view shared by every pass of a run: the
// call graph over all loaded packages, per-package ignore indexes, and
// the //rap:deterministic annotation index. Passes must run one at a
// time: they mark directive usage without synchronization.
type Program struct {
	Packages []*Package

	fns     map[*types.Func]*funcNode
	byPkg   map[string][]*funcNode // import path -> nodes sorted by position
	ignores map[string]*ignoreIndex
	// misplacedDet lists //rap:deterministic comments that are not the
	// doc comment of a function declaration, per package path.
	misplacedDet map[string][]token.Pos
}

// NewProgram joins type-checked packages into a Program, building the
// static call graph, collecting local taint sites, determinism
// annotations, and ignore indexes.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Packages:     pkgs,
		fns:          map[*types.Func]*funcNode{},
		byPkg:        map[string][]*funcNode{},
		ignores:      map[string]*ignoreIndex{},
		misplacedDet: map[string][]token.Pos{},
	}
	for _, pkg := range pkgs {
		prog.ignores[pkg.Path] = buildIgnores(pkg.Fset, pkg.Files)
		prog.addPackage(pkg)
	}
	return prog
}

func (prog *Program) addPackage(pkg *Package) {
	// docDirectives collects the positions of //rap:deterministic lines
	// that legitimately sit in a FuncDecl doc comment.
	docDirectives := map[token.Pos]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			deterministic := false
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if strings.TrimSpace(c.Text) == deterministicDirective {
						deterministic = true
						docDirectives[c.Pos()] = true
					}
				}
			}
			if fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &funcNode{obj: obj, decl: fd, pkg: pkg, deterministic: deterministic}
			prog.scanBody(node)
			prog.fns[obj] = node
			prog.byPkg[pkg.Path] = append(prog.byPkg[pkg.Path], node)
		}
	}
	// Misplaced //rap:deterministic directives: anywhere in the file's
	// comments but not in a function's doc comment.
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == deterministicDirective && !docDirectives[c.Pos()] {
					prog.misplacedDet[pkg.Path] = append(prog.misplacedDet[pkg.Path], c.Pos())
				}
			}
		}
	}
	sort.Slice(prog.byPkg[pkg.Path], func(i, j int) bool {
		ns := prog.byPkg[pkg.Path]
		return ns[i].decl.Pos() < ns[j].decl.Pos()
	})
}

// scanBody walks one function body collecting static call edges and
// local taint sites. Function literals belong to their enclosing
// declaration: their calls and taints are attributed to it.
func (prog *Program) scanBody(node *funcNode) {
	info := node.pkg.Info
	seen := map[*types.Func]bool{}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if callee := calleeOf(info, n); callee != nil && !seen[callee] {
				seen[callee] = true
				node.callees = append(node.callees, callee)
			}
		case *ast.SelectorExpr:
			if desc, ok := nondeterministicUse(info, n); ok {
				node.taints = append(node.taints, taintSite{
					pos: n.Pos(), pkg: node.pkg, desc: desc, local: "seededrand",
				})
			}
		case *ast.RangeStmt:
			t := info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if stmtsOrderInsensitive(info, n.Body.List, identName(n.Key)) {
				return true
			}
			node.taints = append(node.taints, taintSite{
				pos: n.For, pkg: node.pkg, desc: "order-dependent map iteration", local: "maporder",
			})
		}
		return true
	})
}

// calleeOf resolves a call expression to the declared function or
// method it statically invokes, or nil for builtins, conversions,
// function values, and interface-method calls (dynamic dispatch is
// outside the static graph; see DESIGN.md §6). Calls into generic code
// resolve to the generic declaration: explicit instantiations
// (`New[K, V]()`) are unwrapped, and an instantiated function or
// method maps back to its origin, which is what the graph is keyed by.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return nil
}

// nondeterministicUse classifies a selector as a global-rand draw or a
// wall-clock read, returning a human-readable description.
func nondeterministicUse(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[x].(*types.PkgName)
	if !ok {
		return "", false
	}
	switch pn.Imported().Path() {
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[sel.Sel.Name] {
			return fmt.Sprintf("the global math/rand source (%s.%s)", x.Name, sel.Sel.Name), true
		}
	case "time":
		if wallClockFuncs[sel.Sel.Name] {
			return fmt.Sprintf("the wall clock (time.%s)", sel.Sel.Name), true
		}
	}
	return "", false
}

// rootsIn returns the detaint roots declared in the package: functions
// annotated //rap:deterministic, plus every exported function of the
// internal deterministic packages (gpusim, sched, mapping, fusion,
// milp), whose results the golden digests pin.
func (prog *Program) rootsIn(path string) []*funcNode {
	var roots []*funcNode
	for _, node := range prog.byPkg[path] {
		if node.deterministic {
			roots = append(roots, node)
			continue
		}
		if deterministicPkgNames[node.pkg.Name] && isInternalPath(path) && node.decl.Name.IsExported() {
			roots = append(roots, node)
		}
	}
	return roots
}

// taintHit is one taint site reachable from a root, with the static
// call path that reaches it.
type taintHit struct {
	site *taintSite
	path []*funcNode // root ... function containing the site
}

// reachableTaints walks the call graph breadth-first from root and
// returns every taint site in reach, each with one (shortest) call
// path. Traversal order is deterministic: callees are visited in
// source order.
func (prog *Program) reachableTaints(root *funcNode) []taintHit {
	visited := map[*funcNode]bool{root: true}
	parent := map[*funcNode]*funcNode{}
	queue := []*funcNode{root}
	var hits []taintHit
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if len(fn.taints) > 0 {
			var path []*funcNode
			for n := fn; n != nil; n = parent[n] {
				path = append([]*funcNode{n}, path...)
			}
			for i := range fn.taints {
				hits = append(hits, taintHit{site: &fn.taints[i], path: path})
			}
		}
		for _, callee := range fn.callees {
			cn := prog.fns[callee]
			if cn == nil || visited[cn] {
				continue
			}
			visited[cn] = true
			parent[cn] = fn
			queue = append(queue, cn)
		}
	}
	return hits
}

// shortFuncName renders a function for findings: pkg.Func or
// (pkg.Type).Method.
func shortFuncName(f *types.Func) string {
	pkgName := ""
	if f.Pkg() != nil {
		pkgName = f.Pkg().Name() + "."
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fmt.Sprintf("(%s%s).%s", pkgName, n.Obj().Name(), f.Name())
		}
	}
	return pkgName + f.Name()
}

func pathString(path []*funcNode) string {
	names := make([]string, len(path))
	for i, n := range path {
		names[i] = shortFuncName(n.obj)
	}
	return strings.Join(names, " -> ")
}
