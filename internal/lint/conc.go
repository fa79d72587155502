package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// This file is raplint v4's concurrency-soundness fact base, shared by
// the lockorder, atomicplain, wgcheck, and goroutineleak analyzers. It
// rides the same lazy-build pattern as the v3 SSA layer (ssa.go): the
// facts are constructed once per Program by the first v4 pass.
//
// The dependency-closure rule shapes every fact the same way it shapes
// the SSA layer: a package's findings may depend only on itself and its
// dependency closure, never on its dependents, so a package's pass may
// only consume facts contributed by itself or by packages it
// (transitively) imports.
// The facts below are therefore tagged with their contributing package
// and filtered per pass through depClosure. Facts from unrelated
// sibling packages — loaded in the same run but outside the closure —
// are invisible, exactly as if the package were analyzed alone against
// its dependencies.
//
// The collected facts:
//
//   - lock-order edges: "B acquired while A held", from a held-set walk
//     of every function body plus call-site summaries (a call made under
//     lock A contributes edges A -> every lock the callee transitively
//     acquires). Lock identity is the resolved mutex object, qualified
//     by the rendered base expression for struct fields so `a.mu` and
//     `b.mu` of the same type stay distinct instances.
//   - atomically accessed objects: variables and fields whose address
//     is passed to a sync/atomic function (typed atomics like
//     atomic.Int64 cannot be mixed and are out of scope).
//   - WaitGroup parameter summaries: which *sync.WaitGroup parameters a
//     function calls Add/Done on, propagated through verbatim
//     pass-through calls, so `go worker(&wg)` is checked against what
//     worker actually does.
//   - channel parameter summaries: chan parameters a function directly
//     sends on or receives from outside any select, so `go drain(ch)`
//     counts as a channel op of that kind on ch.
//   - panic reachability: functions that call panic directly or
//     transitively (the call-graph extension of the panicpath
//     analyzer's local view), used by wgcheck to flag non-deferred
//     Done calls that a panicking callee would skip.

// lockKey identifies one lock instance. obj is the resolved mutex
// object (field var, package var, or local var); qual is the rendered
// base expression when the mutex is a struct field, so distinct
// instances of the same field stay distinct. When the object cannot be
// resolved, qual alone (the rendered receiver) is the identity.
type lockKey struct {
	obj  types.Object
	qual string
}

// lockEdge is one "to acquired while from held" observation: a direct
// nested acquisition, or a call made under lock to a function that
// transitively acquires `to` (via names the callee then).
type lockEdge struct {
	from, to lockKey
	pos      token.Pos
	pkg      string // contributing package path
	via      string // "" for a direct acquisition, else the callee name
}

// atomicUse is one sync/atomic access to an object's address.
type atomicUse struct {
	pos token.Pos
	pkg string
}

// chanParamOp marks a function's direct, select-free send or receive on
// one of its channel parameters.
type chanParamOp struct {
	idx int
	op  string // "send" or "receive"
}

// concFacts is the whole-program v4 fact base, immutable after build.
type concFacts struct {
	prog     *Program
	buildDur time.Duration

	edges    []lockEdge         // all lock-order edges, deterministic order
	lockName map[lockKey]string // first-seen rendered name per lock

	atomics map[types.Object][]atomicUse

	addsOnParam  map[*types.Func][]int
	donesOnParam map[*types.Func][]int
	chanParamOps map[*types.Func][]chanParamOp

	mayPanic map[*types.Func]bool

	closures map[string]map[string]bool // pkg path -> dependency closure incl. itself
	fnConc   map[*funcNode]*funcConc
}

// ConcFactsBuildTime returns how long the v4 concurrency fact
// construction took, or zero when no pass needed it.
func (prog *Program) ConcFactsBuildTime() time.Duration {
	if prog.conc == nil {
		return 0
	}
	return prog.conc.buildDur
}

// concFacts builds the concurrency facts on first use.
func (prog *Program) concFacts() *concFacts {
	if prog.conc == nil {
		//lint:ignore seededrand raplint times its own passes; no simulated result depends on this clock
		start := time.Now()
		f := &concFacts{
			prog:         prog,
			lockName:     map[lockKey]string{},
			atomics:      map[types.Object][]atomicUse{},
			addsOnParam:  map[*types.Func][]int{},
			donesOnParam: map[*types.Func][]int{},
			chanParamOps: map[*types.Func][]chanParamOp{},
			mayPanic:     map[*types.Func]bool{},
			closures:     map[string]map[string]bool{},
		}
		f.buildClosures()
		f.scan()
		f.propagateParams()
		f.propagatePanics()
		f.summaryEdges()
		//lint:ignore seededrand raplint times its own passes; no simulated result depends on this clock
		f.buildDur = time.Since(start)
		prog.conc = f
	}
	return prog.conc
}

// buildClosures computes each loaded package's dependency closure,
// restricted to loaded packages (the only ones facts can come from).
func (f *concFacts) buildClosures() {
	loaded := map[string]*Package{}
	for _, pkg := range f.prog.Packages {
		loaded[pkg.Path] = pkg
	}
	var visit func(path string, out map[string]bool)
	visit = func(path string, out map[string]bool) {
		if out[path] {
			return
		}
		out[path] = true
		pkg := loaded[path]
		if pkg == nil || pkg.Types == nil {
			return
		}
		for _, imp := range pkg.Types.Imports() {
			if loaded[imp.Path()] != nil {
				visit(imp.Path(), out)
			}
		}
	}
	for _, pkg := range f.prog.Packages {
		cl := map[string]bool{}
		visit(pkg.Path, cl)
		f.closures[pkg.Path] = cl
	}
}

// depClosure returns the dependency closure of path (including itself):
// the packages whose facts a pass for path may consume.
func (f *concFacts) depClosure(path string) map[string]bool {
	return f.closures[path]
}

// funcConc is the per-function scratch collected by scan and consumed
// by the interprocedural propagation passes.
type funcConc struct {
	acquires   []lockKey // locks acquired anywhere in the body, first-seen order
	transAcq   []lockKey // fixpoint result: acquires of self and callees
	underLock  []lockedCall
	panicsHere bool
}

type lockedCall struct {
	held []lockKey
	fn   *types.Func
	pos  token.Pos
}

func (f *concFacts) scan() {
	f.fnConc = map[*funcNode]*funcConc{}
	for _, pkg := range f.prog.Packages {
		for _, node := range f.prog.byPkg[pkg.Path] {
			f.scanFunc(pkg, node)
		}
	}
}

// scanFunc walks one function body collecting lock acquisitions and
// direct lock-order edges (via heldWalker, whose held-set semantics —
// branch copies, deferred unlocks, lock-free goroutine entry — match
// guardedby's), sync/atomic address captures, WaitGroup/channel
// parameter summaries, and direct panic sites.
func (f *concFacts) scanFunc(pkg *Package, node *funcNode) {
	fc := &funcConc{}
	f.fnConc[node] = fc
	info := pkg.Info
	seenAcq := map[lockKey]bool{}

	// keyBy maps heldWalker's rendered held-set strings back to keys;
	// within one function the rendering is consistent.
	keyBy := map[string]lockKey{}
	heldKeys := func(held map[string]bool) []lockKey {
		var ks []lockKey
		for _, name := range sortedKeys(held) {
			if k, ok := keyBy[name]; ok {
				ks = append(ks, k)
			}
		}
		return ks
	}

	w := &heldWalker{
		info: info,
		onLock: func(sel *ast.SelectorExpr, name string, held map[string]bool) {
			if !isSyncMutex(info, sel.X) {
				return
			}
			key := lockKeyOf(info, sel.X)
			rendered := types.ExprString(sel.X)
			keyBy[rendered] = key
			if _, ok := f.lockName[key]; !ok {
				f.lockName[key] = rendered
			}
			if !seenAcq[key] {
				seenAcq[key] = true
				fc.acquires = append(fc.acquires, key)
			}
			for _, h := range heldKeys(held) {
				if h == key {
					continue
				}
				f.edges = append(f.edges, lockEdge{from: h, to: key, pos: sel.Sel.Pos(), pkg: pkg.Path})
			}
		},
		onCall: func(call *ast.CallExpr, held map[string]bool) {
			if callee := calleeOf(info, call); callee != nil && len(held) > 0 {
				if hk := heldKeys(held); len(hk) > 0 {
					fc.underLock = append(fc.underLock, lockedCall{held: hk, fn: callee, pos: call.Pos()})
				}
			}
		},
	}
	w.stmts(node.decl.Body.List, map[string]bool{})

	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				fc.panicsHere = true
			}
			return true
		}
		if obj := atomicArgObject(info, call); obj != nil {
			f.atomics[obj] = append(f.atomics[obj], atomicUse{pos: call.Pos(), pkg: pkg.Path})
		}
		return true
	})

	f.scanParams(pkg, node)
}

// scanParams records which *sync.WaitGroup parameters the function
// calls Add/Done on and which channel parameters it directly sends on
// or receives from outside a select.
func (f *concFacts) scanParams(pkg *Package, node *funcNode) {
	info := pkg.Info
	sig, ok := node.obj.Type().(*types.Signature)
	if !ok {
		return
	}
	paramIdx := map[types.Object]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		paramIdx[sig.Params().At(i)] = i
	}
	inSelect := map[ast.Node]bool{}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			ast.Inspect(n, func(m ast.Node) bool {
				inSelect[m] = true
				return true
			})
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name := sel.Sel.Name; name == "Add" || name == "Done" {
				obj := wgObject(info, sel.X)
				if obj == nil {
					return true
				}
				idx, isParam := paramIdx[obj]
				if !isParam {
					return true
				}
				if name == "Add" {
					f.addsOnParam[node.obj] = appendIdx(f.addsOnParam[node.obj], idx)
				} else {
					f.donesOnParam[node.obj] = appendIdx(f.donesOnParam[node.obj], idx)
				}
			}
		case *ast.SendStmt:
			if inSelect[n] {
				return true
			}
			if obj := paramChan(info, paramIdx, n.Chan); obj >= 0 {
				f.addChanOp(node.obj, obj, "send")
			}
		case *ast.UnaryExpr:
			if n.Op != token.ARROW || inSelect[n] {
				return true
			}
			if obj := paramChan(info, paramIdx, n.X); obj >= 0 {
				f.addChanOp(node.obj, obj, "receive")
			}
		case *ast.RangeStmt:
			if inSelect[n] {
				return true
			}
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					if obj := paramChan(info, paramIdx, n.X); obj >= 0 {
						f.addChanOp(node.obj, obj, "receive")
					}
				}
			}
		}
		return true
	})
}

func (f *concFacts) addChanOp(fn *types.Func, idx int, op string) {
	for _, e := range f.chanParamOps[fn] {
		if e.idx == idx && e.op == op {
			return
		}
	}
	f.chanParamOps[fn] = append(f.chanParamOps[fn], chanParamOp{idx: idx, op: op})
}

func appendIdx(s []int, idx int) []int {
	for _, v := range s {
		if v == idx {
			return s
		}
	}
	return append(s, idx)
}

// paramChan resolves e to a channel-typed parameter index, or -1.
func paramChan(info *types.Info, paramIdx map[types.Object]int, e ast.Expr) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	obj := info.Uses[id]
	if obj == nil {
		return -1
	}
	if idx, ok := paramIdx[obj]; ok {
		if _, isChan := obj.Type().Underlying().(*types.Chan); isChan {
			return idx
		}
	}
	return -1
}

// propagateParams closes the Add/Done-on-param and chan-param-op
// summaries over verbatim pass-through calls: f(wg) where f forwards
// the parameter unchanged inherits f's facts at the forwarding index.
func (f *concFacts) propagateParams() {
	for round := 0; round < 8; round++ {
		changed := false
		for _, pkg := range f.prog.Packages {
			for _, node := range f.prog.byPkg[pkg.Path] {
				if f.propagateFuncParams(pkg, node) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

func (f *concFacts) propagateFuncParams(pkg *Package, node *funcNode) bool {
	info := pkg.Info
	sig, ok := node.obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	paramIdx := map[types.Object]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		paramIdx[sig.Params().At(i)] = i
	}
	changed := false
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil || callee == node.obj {
			return true
		}
		for argPos, arg := range call.Args {
			obj := forwardedObject(info, arg)
			if obj == nil {
				continue
			}
			ownIdx, isParam := paramIdx[obj]
			if !isParam {
				continue
			}
			for _, calleeIdx := range f.addsOnParam[callee] {
				if calleeIdx == argPos {
					before := len(f.addsOnParam[node.obj])
					f.addsOnParam[node.obj] = appendIdx(f.addsOnParam[node.obj], ownIdx)
					changed = changed || len(f.addsOnParam[node.obj]) != before
				}
			}
			for _, calleeIdx := range f.donesOnParam[callee] {
				if calleeIdx == argPos {
					before := len(f.donesOnParam[node.obj])
					f.donesOnParam[node.obj] = appendIdx(f.donesOnParam[node.obj], ownIdx)
					changed = changed || len(f.donesOnParam[node.obj]) != before
				}
			}
			for _, op := range f.chanParamOps[callee] {
				if op.idx == argPos {
					before := len(f.chanParamOps[node.obj])
					f.addChanOp(node.obj, ownIdx, op.op)
					changed = changed || len(f.chanParamOps[node.obj]) != before
				}
			}
		}
		return true
	})
	return changed
}

// forwardedObject resolves an argument that forwards a variable
// verbatim: `x` or `&x`.
func forwardedObject(info *types.Info, arg ast.Expr) types.Object {
	e := ast.Unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// propagatePanics closes direct panic sites over the static call graph.
func (f *concFacts) propagatePanics() {
	for node, fc := range f.fnConc {
		if fc.panicsHere {
			f.mayPanic[node.obj] = true
		}
	}
	for round := 0; round < 32; round++ {
		changed := false
		for _, pkg := range f.prog.Packages {
			for _, node := range f.prog.byPkg[pkg.Path] {
				if f.mayPanic[node.obj] {
					continue
				}
				for _, callee := range node.callees {
					if f.mayPanic[callee] {
						f.mayPanic[node.obj] = true
						changed = true
						break
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

// summaryEdges runs the transitive-acquisition fixpoint and converts
// every call made under lock into interprocedural lock-order edges.
func (f *concFacts) summaryEdges() {
	// transAcq(f) = acquires(f) ∪ ⋃ transAcq(callee), to a fixpoint.
	for _, pkg := range f.prog.Packages {
		for _, node := range f.prog.byPkg[pkg.Path] {
			fc := f.fnConc[node]
			fc.transAcq = append(fc.transAcq, fc.acquires...)
		}
	}
	for round := 0; round < 16; round++ {
		changed := false
		for _, pkg := range f.prog.Packages {
			for _, node := range f.prog.byPkg[pkg.Path] {
				fc := f.fnConc[node]
				for _, callee := range node.callees {
					cn := f.prog.fns[callee]
					if cn == nil {
						continue
					}
					for _, k := range f.fnConc[cn].transAcq {
						if !containsKey(fc.transAcq, k) {
							fc.transAcq = append(fc.transAcq, k)
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	for _, pkg := range f.prog.Packages {
		for _, node := range f.prog.byPkg[pkg.Path] {
			fc := f.fnConc[node]
			for _, lc := range fc.underLock {
				cn := f.prog.fns[lc.fn]
				if cn == nil {
					continue
				}
				for _, h := range lc.held {
					for _, k := range f.fnConc[cn].transAcq {
						if h == k {
							continue
						}
						f.edges = append(f.edges, lockEdge{
							from: h, to: k, pos: lc.pos, pkg: pkg.Path,
							via: shortFuncName(lc.fn),
						})
					}
				}
			}
		}
	}
}

func containsKey(ks []lockKey, k lockKey) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// sortedKeys returns a held-set's rendered names in stable order.
func sortedKeys(held map[string]bool) []string {
	names := make([]string, 0, len(held))
	for name := range held {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lockKeyOf resolves a lock receiver expression to its identity key.
func lockKeyOf(info *types.Info, x ast.Expr) lockKey {
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj != nil {
			return lockKey{obj: obj}
		}
	case *ast.SelectorExpr:
		if obj := info.Uses[e.Sel]; obj != nil {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				return lockKey{obj: obj, qual: types.ExprString(e.X)}
			}
			return lockKey{obj: obj}
		}
	}
	return lockKey{qual: types.ExprString(x)}
}

// isSyncMutex reports whether x is a sync.Mutex or sync.RWMutex (or a
// pointer to one); other Lockers are outside the ordering analysis.
func isSyncMutex(info *types.Info, x ast.Expr) bool {
	t := info.TypeOf(x)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Path() != "sync" {
		return false
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

// atomicArgObject returns the object whose address a sync/atomic call
// operates on (atomic.AddInt64(&x, 1) -> x), or nil. Typed atomics
// (atomic.Int64 and friends) have no plain-access twin and are skipped.
func atomicArgObject(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	switch e := ast.Unparen(u.X).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// wgObject resolves a WaitGroup method receiver to its variable when
// the receiver is a *sync.WaitGroup or sync.WaitGroup expression.
func wgObject(info *types.Info, x ast.Expr) types.Object {
	t := info.TypeOf(x)
	if t == nil || !isWaitGroup(t) {
		return nil
	}
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

func isWaitGroup(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}

// lockDisplay renders a lock key for findings.
func (f *concFacts) lockDisplay(k lockKey) string {
	if name, ok := f.lockName[k]; ok {
		return name
	}
	if k.qual != "" {
		return k.qual
	}
	if k.obj != nil {
		return k.obj.Name()
	}
	return "<lock>"
}

// shortPos renders a position as base-file:line for messages.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	parts := strings.Split(p.Filename, "/")
	return fmt.Sprintf("%s:%d", parts[len(parts)-1], p.Line)
}
