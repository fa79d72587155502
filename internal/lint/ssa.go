package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// This file is raplint v3's flow-sensitive layer: a lightweight
// SSA-style value-flow analysis built directly on go/ast + go/types (the
// module is zero-dependency, so golang.org/x/tools/go/ssa is not an
// option). Every variable, parameter, result, struct field, and
// constant is a *cell*; expression evaluation produces abstract values
// over the dimension lattice
//
//	unknown  <  unit(u)  <  conflict
//
// and assignments, call-argument bindings, returns, composite-literal
// fields, and channel sends are def edges that join values into cells.
// The analysis iterates the whole program to a monotone fixpoint, then
// makes one reporting pass in which dimcheck findings are emitted with
// an example flow path (the provenance chain recorded when each cell
// first acquired its unit).
//
// Strong facts come from `//rap:unit <expr>` annotations (fields,
// var/const specs, function doc lines naming a parameter or `return`);
// weak facts reuse the v1 unitmix name-suffix heuristics plus a
// bytesPerMB-style "Per" infix rule. Annotated cells are *pinned*:
// inflow never changes them, and incompatible inflow is a finding at
// the flow site.
//
// The dependency-closure rule shapes the interprocedural flow: a
// package's findings may depend only on itself and the packages it
// imports, never on its dependents, so they are the same whichever
// sibling packages a run happens to load. A fact therefore only flows
// from a dependency to a dependent: code may read the derived units of
// the packages it imports (call results, fields), and writes that cross
// a package boundary mutate nothing — they are checked against the
// target's pinned annotation and reported at the *writing* site.
// Intra-package flow is a full fixpoint in both directions.

// unitDirective is the annotation prefix; see parseUnitDirective.
const unitDirective = "//rap:unit"

var unitDirectiveRe = regexp.MustCompile(`^//rap:unit\s+(\S.*)$`)

// dimState is the lattice position of an abstract value.
type dimState uint8

const (
	dimUnknown dimState = iota
	dimHas
	dimConflict
)

// dimStep is one link of a provenance chain: where a value was seeded
// or through which def edge it flowed.
type dimStep struct {
	pos   token.Pos
	desc  string
	prev  *dimStep
	depth int
}

// maxProvDepth caps provenance chains; longer flows keep their prefix.
const maxProvDepth = 8

// dimValue is one abstract value: a lattice state, the unit when
// state==dimHas, whether the unit is annotation-derived (strong) or
// name-heuristic-derived (weak), and its provenance.
type dimValue struct {
	state  dimState
	u      unit
	strong bool
	prov   *dimStep
}

func unknownValue() dimValue { return dimValue{state: dimUnknown} }

func (v dimValue) has() bool { return v.state == dimHas }

// extend returns v with one provenance step appended (depth-capped).
func (v dimValue) extend(pos token.Pos, desc string) dimValue {
	if v.prov != nil && v.prov.depth >= maxProvDepth {
		return v
	}
	d := 0
	if v.prov != nil {
		d = v.prov.depth + 1
	}
	v.prov = &dimStep{pos: pos, desc: desc, prev: v.prov, depth: d}
	return v
}

// dimCell is the analysis state of one program object.
type dimCell struct {
	obj     types.Object
	pkgPath string // owning package; cross-package writes never mutate
	display string // how findings name the cell
	pinned  bool   // carries a //rap:unit annotation; val is fixed
	annoPos token.Pos
	val     dimValue
}

// dimFinding is one pending dimcheck report, attributed to the package
// that owns pos.
type dimFinding struct {
	pos token.Pos
	msg string
}

// dimFacts is the whole-program analysis state, built once per Program
// (lazily, by the first dimcheck pass) and then read-only.
type dimFacts struct {
	prog     *Program
	cells    map[types.Object]*dimCell
	findings map[string][]dimFinding // package path -> findings at sites in it
	changed  bool
	report   bool
	buildDur time.Duration
}

// DimFactsBuildTime returns how long the SSA value-flow construction
// and fixpoint took, or zero when no pass needed it.
func (prog *Program) DimFactsBuildTime() time.Duration {
	if prog.dim == nil {
		return 0
	}
	return prog.dim.buildDur
}

// dimFacts builds the value-flow facts on first use.
func (prog *Program) dimFacts() *dimFacts {
	if prog.dim == nil {
		//lint:ignore seededrand raplint times its own passes; no simulated result depends on this clock
		start := time.Now()
		f := &dimFacts{
			prog:     prog,
			cells:    map[types.Object]*dimCell{},
			findings: map[string][]dimFinding{},
		}
		f.seed()
		for round := 0; round < 10; round++ {
			f.changed = false
			f.walkAll()
			if !f.changed {
				break
			}
		}
		f.report = true
		f.walkAll()
		f.finalize()
		//lint:ignore seededrand raplint times its own passes; no simulated result depends on this clock
		f.buildDur = time.Since(start)
		prog.dim = f
	}
	return prog.dim
}

// finalize sorts and dedupes findings (the reporting walk evaluates
// nested expressions more than once).
func (f *dimFacts) finalize() {
	for path, fs := range f.findings {
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].pos != fs[j].pos {
				return fs[i].pos < fs[j].pos
			}
			return fs[i].msg < fs[j].msg
		})
		out := fs[:0]
		for i, x := range fs {
			if i == 0 || x != fs[i-1] {
				out = append(out, x)
			}
		}
		f.findings[path] = out
	}
}

func (f *dimFacts) addFinding(pos token.Pos, format string, args ...any) {
	pkg := f.pkgOf(pos)
	if pkg == "" {
		return
	}
	f.findings[pkg] = append(f.findings[pkg], dimFinding{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// pkgOf attributes a position to the loaded package containing it.
func (f *dimFacts) pkgOf(pos token.Pos) string {
	for _, pkg := range f.prog.Packages {
		for _, file := range pkg.Files {
			if file.FileStart <= pos && pos < file.FileEnd {
				return pkg.Path
			}
		}
	}
	return ""
}

// cellFor returns the cell of obj, creating an unknown one on demand.
func (f *dimFacts) cellFor(obj types.Object) *dimCell {
	if c, ok := f.cells[obj]; ok {
		return c
	}
	pkgPath := ""
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	c := &dimCell{obj: obj, pkgPath: pkgPath, display: obj.Name(), val: unknownValue()}
	f.cells[obj] = c
	return c
}

// ---------------------------------------------------------------------
// Seeding: annotations (strong, pinned) and name heuristics (weak).

// seed collects every //rap:unit annotation and every unit-suffixed
// name into cells. Malformed or misplaced directives become findings.
func (f *dimFacts) seed() {
	for _, pkg := range f.prog.Packages {
		consumed := map[token.Pos]bool{}
		for _, file := range pkg.Files {
			f.seedFile(pkg, file, consumed)
		}
		// Stray directives: //rap:unit comments that no supported
		// position consumed.
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, unitDirective) && !consumed[c.Pos()] {
						f.addFinding(c.Pos(), "//rap:unit must annotate a struct field, a var/const spec, or name a parameter/return in a function doc comment")
					}
				}
			}
		}
		// Weak seeds: every defined numeric-ish var or const whose name
		// carries a unit suffix (or a bytesPerMB-style Per infix).
		for id, obj := range pkg.Info.Defs {
			if obj == nil || !numericish(obj.Type()) {
				continue
			}
			switch obj.(type) {
			case *types.Var, *types.Const:
			default:
				continue
			}
			u, ok := nameUnit(id.Name)
			if !ok {
				continue
			}
			c := f.cellFor(obj)
			if c.pinned || c.val.has() {
				continue
			}
			c.val = dimValue{state: dimHas, u: u, strong: false,
				prov: &dimStep{pos: id.Pos(), desc: fmt.Sprintf("name suffix of %q", id.Name)}}
		}
	}
}

// seedFile walks one file's declarations for //rap:unit annotations.
func (f *dimFacts) seedFile(pkg *Package, file *ast.File, consumed map[token.Pos]bool) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			f.seedFuncDoc(pkg, d, consumed)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			if n.Fields == nil {
				return true
			}
			for _, fld := range n.Fields.List {
				expr, pos, ok := fieldDirective(fld, consumed)
				if !ok {
					continue
				}
				u, err := parseUnit(expr)
				if err != nil {
					f.addFinding(pos, "bad //rap:unit annotation: %v", err)
					continue
				}
				for _, name := range fld.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						f.pin(obj, u, pos, name.Name)
					}
				}
			}
		case *ast.ValueSpec:
			expr, pos, ok := specDirective(n, consumed)
			if !ok {
				return true
			}
			u, err := parseUnit(expr)
			if err != nil {
				f.addFinding(pos, "bad //rap:unit annotation: %v", err)
				return true
			}
			for _, name := range n.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					f.pin(obj, u, pos, name.Name)
				}
			}
		}
		return true
	})
}

// seedFuncDoc handles `//rap:unit <param|result|return> <expr>` lines
// in a function's doc comment.
func (f *dimFacts) seedFuncDoc(pkg *Package, fd *ast.FuncDecl, consumed map[token.Pos]bool) {
	if fd.Doc == nil {
		return
	}
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	for _, c := range fd.Doc.List {
		m := unitDirectiveRe.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		consumed[c.Pos()] = true
		if obj == nil {
			f.addFinding(c.Pos(), "//rap:unit on an undeclared function")
			continue
		}
		fields := strings.Fields(m[1])
		if len(fields) != 2 {
			f.addFinding(c.Pos(), "function doc //rap:unit wants `<param|return> <unit>`, got %q", m[1])
			continue
		}
		target, expr := fields[0], fields[1]
		u, err := parseUnit(expr)
		if err != nil {
			f.addFinding(c.Pos(), "bad //rap:unit annotation: %v", err)
			continue
		}
		sig := obj.Type().(*types.Signature)
		tv := lookupSigVar(sig, target)
		if tv == nil {
			f.addFinding(c.Pos(), "//rap:unit target %q names no parameter or result of %s", target, shortFuncName(obj))
			continue
		}
		name := target
		if name == "return" {
			name = shortFuncName(obj) + " result"
		}
		f.pin(tv, u, c.Pos(), name)
	}
}

// lookupSigVar resolves a doc-directive target: a parameter name, a
// named result, or the keyword `return` for the first result.
func lookupSigVar(sig *types.Signature, target string) *types.Var {
	if target == "return" {
		if sig.Results().Len() == 0 {
			return nil
		}
		return sig.Results().At(0)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Name() == target {
			return sig.Params().At(i)
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if sig.Results().At(i).Name() == target {
			return sig.Results().At(i)
		}
	}
	if sig.Recv() != nil && sig.Recv().Name() == target {
		return sig.Recv()
	}
	return nil
}

// pin fixes a cell to an annotated unit.
func (f *dimFacts) pin(obj types.Object, u unit, pos token.Pos, display string) {
	c := f.cellFor(obj)
	c.pinned = true
	c.annoPos = pos
	c.display = display
	c.val = dimValue{state: dimHas, u: u, strong: true,
		prov: &dimStep{pos: pos, desc: fmt.Sprintf("//rap:unit %s on %q", u, display)}}
}

// fieldDirective extracts a //rap:unit expression from a struct field's
// doc or trailing comment.
func fieldDirective(fld *ast.Field, consumed map[token.Pos]bool) (string, token.Pos, bool) {
	return commentDirective([]*ast.CommentGroup{fld.Doc, fld.Comment}, consumed)
}

// specDirective extracts a //rap:unit expression from a var/const
// spec's doc or trailing comment.
func specDirective(vs *ast.ValueSpec, consumed map[token.Pos]bool) (string, token.Pos, bool) {
	return commentDirective([]*ast.CommentGroup{vs.Doc, vs.Comment}, consumed)
}

func commentDirective(groups []*ast.CommentGroup, consumed map[token.Pos]bool) (string, token.Pos, bool) {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := unitDirectiveRe.FindStringSubmatch(c.Text); m != nil {
				consumed[c.Pos()] = true
				return strings.TrimSpace(m[1]), c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// nameUnit infers a weak unit from an identifier name: the unitmix
// suffix table, or a conversion-constant "Per" infix (bytesPerMB →
// bytes/MB) whose sides are exact atom spellings.
func nameUnit(name string) (unit, bool) {
	if i := strings.Index(name, "Per"); i > 0 && i+3 < len(name) {
		if lu, ok := atomNameUnit(name[:i]); ok {
			if ru, ok := atomNameUnit(name[i+3:]); ok {
				return lu.div(ru), true
			}
		}
	}
	return suffixUnit(name)
}

// atomNameUnit resolves a name fragment as one exact unit atom,
// tolerating an upper-cased first letter ("S" for "s").
func atomNameUnit(s string) (unit, bool) {
	for _, cand := range []string{s, strings.ToLower(s[:1]) + s[1:]} {
		if canon, ok := unitAtoms[cand]; ok {
			if canon == "" {
				return dimensionless(), true
			}
			return unit{factors: map[string]int{canon: 1}}, true
		}
		if expanded, ok := rateAliases[cand]; ok {
			u, err := parseUnit(expanded)
			if err == nil {
				return u, true
			}
		}
	}
	return unit{}, false
}

// numericish unwraps aggregates to decide whether a unit seed makes
// sense for a type: numeric basics, and slices/arrays/maps/chans/
// pointers of them (the annotation describes the element).
func numericish(t types.Type) bool {
	for i := 0; i < 8; i++ {
		switch u := t.Underlying().(type) {
		case *types.Basic:
			return u.Info()&(types.IsNumeric) != 0
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Pointer:
			t = u.Elem()
		default:
			return false
		}
	}
	return false
}

// ---------------------------------------------------------------------
// The fixpoint walk.

func (f *dimFacts) walkAll() {
	for _, pkg := range f.prog.Packages {
		in := &dimInterp{f: f, pkg: pkg}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					sig, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if sig != nil {
						in.sigs = append(in.sigs[:0], sig.Type().(*types.Signature))
					} else {
						in.sigs = in.sigs[:0]
					}
					in.block(d.Body)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							in.valueSpec(vs)
						}
					}
				}
			}
		}
	}
}

// dimInterp interprets one package's statements against the shared
// cells. sigs is the stack of enclosing function signatures (function
// literals push) used to bind return statements to result cells.
type dimInterp struct {
	f    *dimFacts
	pkg  *Package
	sigs []*types.Signature
}

func (in *dimInterp) info() *types.Info { return in.pkg.Info }

// flowInto joins v into the cell of obj through a def edge at pos.
// Pinned cells never change — incompatible inflow is a finding at the
// flow site. Cross-package writes mutate nothing (the dependency-closure
// rule; see the file comment): they are checked against pinned cells only.
func (in *dimInterp) flowInto(obj types.Object, v dimValue, pos token.Pos, site string) {
	if obj == nil || !v.has() {
		return
	}
	c := in.f.cellFor(obj)
	if c.pinned {
		if in.f.report && !v.u.equal(c.val.u) {
			in.f.addFinding(pos, "%s: %s value flows into %q declared //rap:unit %s (%s; annotation at %s)",
				site, v.u, c.display, c.val.u, in.describe(v), in.pos(c.annoPos))
		}
		return
	}
	if c.pkgPath != "" && c.pkgPath != in.pkg.Path {
		return // cross-package write into an unannotated cell: no fact flow
	}
	switch c.val.state {
	case dimUnknown:
		c.val = v.extend(pos, site)
		in.f.changed = true
	case dimHas:
		if c.val.u.equal(v.u) {
			if v.strong && !c.val.strong {
				c.val.strong = true
				in.f.changed = true
			}
			return
		}
		if c.val.strong != v.strong {
			if v.strong { // annotation-derived beats a name guess
				c.val = v.extend(pos, site)
				in.f.changed = true
			}
			return
		}
		c.val = dimValue{state: dimConflict}
		in.f.changed = true
	case dimConflict:
	}
}

// lvalue resolves an assignable expression to the object whose cell it
// writes: identifiers, field selectors, and the base of index/star/
// paren chains (element writes join into the aggregate's cell).
func (in *dimInterp) lvalue(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		if obj := in.info().Defs[e]; obj != nil {
			return obj
		}
		return in.info().Uses[e]
	case *ast.SelectorExpr:
		return in.info().Uses[e.Sel]
	case *ast.IndexExpr:
		return in.lvalue(e.X)
	case *ast.StarExpr:
		return in.lvalue(e.X)
	case *ast.ParenExpr:
		return in.lvalue(e.X)
	}
	return nil
}

// ---------------------------------------------------------------------
// Statements.

func (in *dimInterp) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	in.stmts(b.List)
}

func (in *dimInterp) stmts(list []ast.Stmt) {
	for _, s := range list {
		in.stmt(s)
	}
}

func (in *dimInterp) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		in.block(s)
	case *ast.AssignStmt:
		in.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					in.valueSpec(vs)
				}
			}
		}
	case *ast.ReturnStmt:
		in.returnStmt(s)
	case *ast.RangeStmt:
		in.rangeStmt(s)
	case *ast.ForStmt:
		in.stmtIf(s.Init)
		in.eval(s.Cond)
		in.stmtIf(s.Post)
		in.block(s.Body)
	case *ast.IfStmt:
		in.stmtIf(s.Init)
		in.eval(s.Cond)
		in.block(s.Body)
		in.stmtIf(s.Else)
	case *ast.SwitchStmt:
		in.stmtIf(s.Init)
		var tag dimValue
		if s.Tag != nil {
			tag = in.eval(s.Tag)
		}
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CaseClause)
			for _, e := range cc.List {
				cv := in.eval(e)
				if s.Tag != nil {
					in.checkPair(tag, cv, e.Pos(), "case")
				}
			}
			in.stmts(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		in.stmtIf(s.Init)
		in.stmtIf(s.Assign)
		for _, cl := range s.Body.List {
			in.stmts(cl.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			in.stmtIf(cc.Comm)
			in.stmts(cc.Body)
		}
	case *ast.ExprStmt:
		in.eval(s.X)
	case *ast.GoStmt:
		in.eval(s.Call)
	case *ast.DeferStmt:
		in.eval(s.Call)
	case *ast.SendStmt:
		v := in.eval(s.Value)
		in.flowInto(in.lvalue(s.Chan), v, s.Arrow, "sent to channel")
	case *ast.LabeledStmt:
		in.stmt(s.Stmt)
	case *ast.IncDecStmt:
		in.eval(s.X)
	}
}

func (in *dimInterp) stmtIf(s ast.Stmt) {
	if s != nil {
		in.stmt(s)
	}
}

// valueSpec handles `var x, y = e1, e2` and const specs.
func (in *dimInterp) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 0 {
		return
	}
	if len(vs.Names) > 1 && len(vs.Values) == 1 {
		in.bindMulti(identObjs(in, vs.Names), vs.Values[0])
		return
	}
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		v := in.eval(vs.Values[i])
		if obj := in.info().Defs[name]; obj != nil {
			in.flowInto(obj, v, name.Pos(), fmt.Sprintf("assigned to %q", name.Name))
		}
	}
}

func identObjs(in *dimInterp, names []*ast.Ident) []types.Object {
	objs := make([]types.Object, len(names))
	for i, n := range names {
		objs[i] = in.info().Defs[n]
	}
	return objs
}

func (in *dimInterp) assign(s *ast.AssignStmt) {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
			objs := make([]types.Object, len(s.Lhs))
			for i, l := range s.Lhs {
				objs[i] = in.lvalue(l)
			}
			in.bindMulti(objs, s.Rhs[0])
			return
		}
		for i, l := range s.Lhs {
			if i >= len(s.Rhs) {
				break
			}
			v := in.eval(s.Rhs[i])
			obj := in.lvalue(l)
			if obj != nil {
				in.flowInto(obj, v, s.TokPos, fmt.Sprintf("assigned to %q", obj.Name()))
			}
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return
		}
		cur := in.eval(s.Lhs[0])
		v := in.eval(s.Rhs[0])
		in.checkPair(cur, v, s.TokPos, s.Tok.String())
		obj := in.lvalue(s.Lhs[0])
		if obj != nil {
			in.flowInto(obj, v, s.TokPos, fmt.Sprintf("accumulated into %q", obj.Name()))
		}
	case token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return
		}
		cur := in.eval(s.Lhs[0])
		v := in.eval(s.Rhs[0])
		if cur.has() && v.has() {
			u := cur.u.mul(v.u)
			if s.Tok == token.QUO_ASSIGN {
				u = cur.u.div(v.u)
			}
			nv := dimValue{state: dimHas, u: u, strong: cur.strong && v.strong, prov: cur.prov}
			if obj := in.lvalue(s.Lhs[0]); obj != nil {
				in.flowInto(obj, nv, s.TokPos, fmt.Sprintf("scaled into %q", obj.Name()))
			}
		}
	default:
		for _, r := range s.Rhs {
			in.eval(r)
		}
	}
}

// bindMulti handles `a, b := f()` / `v, ok := m[k]` destructuring.
func (in *dimInterp) bindMulti(objs []types.Object, rhs ast.Expr) {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if callee := calleeOf(in.info(), call); callee != nil {
			in.bindArgs(call, callee)
			sig, ok := callee.Type().(*types.Signature)
			if ok {
				for i, obj := range objs {
					if obj == nil || i >= sig.Results().Len() {
						continue
					}
					rv := in.read(sig.Results().At(i), call.Pos())
					in.flowInto(obj, rv, call.Pos(), fmt.Sprintf("result %d of %s", i, shortFuncName(callee)))
				}
				return
			}
		}
		in.eval(rhs)
		return
	}
	// v, ok := m[k] / <-ch / x.(T): the first target carries the value.
	v := in.eval(rhs)
	if len(objs) > 0 && objs[0] != nil {
		in.flowInto(objs[0], v, rhs.Pos(), fmt.Sprintf("assigned to %q", objs[0].Name()))
	}
}

func (in *dimInterp) returnStmt(s *ast.ReturnStmt) {
	if len(in.sigs) == 0 {
		for _, r := range s.Results {
			in.eval(r)
		}
		return
	}
	sig := in.sigs[len(in.sigs)-1]
	for i, r := range s.Results {
		v := in.eval(r)
		if sig != nil && i < sig.Results().Len() {
			in.flowInto(sig.Results().At(i), v, r.Pos(), "returned")
		}
	}
}

func (in *dimInterp) rangeStmt(s *ast.RangeStmt) {
	base := in.eval(s.X)
	t := in.info().TypeOf(s.X)
	// The element unit of a seeded aggregate is the aggregate's unit;
	// which range variable carries the element depends on the ranged
	// type (slices/maps: the value; channels: the key).
	var elemTarget ast.Expr
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Chan:
			elemTarget = s.Key
		case *types.Map, *types.Slice, *types.Array:
			elemTarget = s.Value
		}
	}
	if elemTarget != nil {
		if obj := in.lvalue(elemTarget); obj != nil {
			in.flowInto(obj, base, s.For, "range element")
		}
	}
	in.block(s.Body)
}

// ---------------------------------------------------------------------
// Expressions.

func (in *dimInterp) eval(e ast.Expr) dimValue {
	if e == nil {
		return unknownValue()
	}
	switch e := e.(type) {
	case *ast.Ident:
		return in.evalIdent(e)
	case *ast.SelectorExpr:
		if obj := in.info().Uses[e.Sel]; obj != nil {
			switch obj.(type) {
			case *types.Var, *types.Const:
				return in.read(obj, e.Sel.Pos())
			}
			return unknownValue()
		}
		return in.weakName(e.Sel.Name, e.Sel.Pos())
	case *ast.BinaryExpr:
		return in.evalBinary(e)
	case *ast.CallExpr:
		return in.evalCall(e)
	case *ast.ParenExpr:
		return in.eval(e.X)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.ARROW:
			return in.eval(e.X)
		}
		in.eval(e.X)
		return unknownValue()
	case *ast.StarExpr:
		return in.eval(e.X)
	case *ast.IndexExpr:
		in.eval(e.Index)
		return in.eval(e.X)
	case *ast.SliceExpr:
		return in.eval(e.X)
	case *ast.TypeAssertExpr:
		in.eval(e.X)
		return unknownValue()
	case *ast.CompositeLit:
		in.compositeLit(e)
		return unknownValue()
	case *ast.FuncLit:
		sig, _ := in.info().TypeOf(e).(*types.Signature)
		in.sigs = append(in.sigs, sig)
		in.block(e.Body)
		in.sigs = in.sigs[:len(in.sigs)-1]
		return unknownValue()
	case *ast.KeyValueExpr:
		in.eval(e.Value)
		return unknownValue()
	}
	return unknownValue()
}

func (in *dimInterp) evalIdent(id *ast.Ident) dimValue {
	obj := in.info().Uses[id]
	if obj == nil {
		obj = in.info().Defs[id]
	}
	switch obj.(type) {
	case *types.Var, *types.Const:
		return in.read(obj, id.Pos())
	case nil:
		return in.weakName(id.Name, id.Pos())
	}
	return unknownValue()
}

// read returns the cell value of obj, falling back to a weak name seed
// for objects with no cell information.
func (in *dimInterp) read(obj types.Object, pos token.Pos) dimValue {
	if c, ok := in.f.cells[obj]; ok && c.val.state != dimUnknown {
		if c.val.state == dimConflict {
			return unknownValue()
		}
		return c.val
	}
	return in.weakName(obj.Name(), pos)
}

func (in *dimInterp) weakName(name string, pos token.Pos) dimValue {
	if u, ok := nameUnit(name); ok {
		return dimValue{state: dimHas, u: u, strong: false,
			prov: &dimStep{pos: pos, desc: fmt.Sprintf("name suffix of %q", name)}}
	}
	return unknownValue()
}

func (in *dimInterp) evalBinary(be *ast.BinaryExpr) dimValue {
	x := in.eval(be.X)
	y := in.eval(be.Y)
	switch be.Op {
	case token.ADD, token.SUB:
		return in.additive(x, y, be)
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		in.checkPair(x, y, be.OpPos, be.Op.String())
		return unknownValue()
	case token.MUL:
		if x.has() && y.has() {
			return dimValue{state: dimHas, u: x.u.mul(y.u), strong: x.strong && y.strong, prov: pickProv(x, y)}
		}
		return unknownValue()
	case token.QUO:
		if x.has() && y.has() {
			return dimValue{state: dimHas, u: x.u.div(y.u), strong: x.strong && y.strong, prov: pickProv(x, y)}
		}
		return unknownValue()
	case token.REM:
		return x
	}
	return unknownValue()
}

// additive joins the operands of +/-: equal units pass through,
// incompatible concrete units are a finding.
func (in *dimInterp) additive(x, y dimValue, be *ast.BinaryExpr) dimValue {
	if x.has() && y.has() {
		if x.u.equal(y.u) {
			out := x
			out.strong = x.strong || y.strong
			return out
		}
		in.reportMix(x, y, be)
		return dimValue{state: dimConflict}
	}
	if x.has() {
		return x
	}
	if y.has() {
		return y
	}
	return unknownValue()
}

// checkPair reports when two concrete values of an order/accumulation
// site disagree on units.
func (in *dimInterp) checkPair(x, y dimValue, pos token.Pos, op string) {
	if in.f.report && x.has() && y.has() && !x.u.equal(y.u) {
		in.f.addFinding(pos, "%s mixes %s with %s (%s; %s); convert one side explicitly or annotate with //rap:unit",
			op, x.u, y.u, in.describe(x), in.describe(y))
	}
}

func (in *dimInterp) reportMix(x, y dimValue, be *ast.BinaryExpr) {
	if !in.f.report {
		return
	}
	in.f.addFinding(be.OpPos, "%s %s %s mixes %s with %s (%s; %s); convert one side explicitly or annotate with //rap:unit",
		exprName(be.X), be.Op, exprName(be.Y), x.u, y.u, in.describe(x), in.describe(y))
}

// exprName renders a short operand name for messages.
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprName(e.X)
	case *ast.CallExpr:
		return exprName(e.Fun) + "(…)"
	case *ast.IndexExpr:
		return exprName(e.X) + "[…]"
	case *ast.BinaryExpr:
		return "the " + e.Op.String() + " expression"
	}
	return "the expression"
}

func pickProv(x, y dimValue) *dimStep {
	if x.prov != nil {
		return x.prov
	}
	return y.prov
}

func (in *dimInterp) evalCall(call *ast.CallExpr) dimValue {
	// Type conversion: float64(x) keeps x's unit.
	if tv, ok := in.info().Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return in.eval(call.Args[0])
	}
	callee := calleeOf(in.info(), call)
	if callee == nil {
		// Builtins and dynamic calls: evaluate arguments for their
		// side findings; min/max/append keep the first argument's unit.
		var args []dimValue
		for _, a := range call.Args {
			args = append(args, in.eval(a))
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(args) > 0 {
			switch id.Name {
			case "min", "max":
				for i := 1; i < len(args); i++ {
					in.checkPair(args[0], args[i], call.Args[i].Pos(), id.Name)
				}
				return args[0]
			case "append":
				for i := 1; i < len(args); i++ {
					if obj := in.lvalue(call.Args[0]); obj != nil {
						in.flowInto(obj, args[i], call.Args[i].Pos(), "appended")
					}
				}
				return args[0]
			}
		}
		return unknownValue()
	}
	if v, ok := in.mathCall(call, callee); ok {
		return v
	}
	in.bindArgs(call, callee)
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return unknownValue()
	}
	return in.read(sig.Results().At(0), call.Pos()).extend(call.Pos(), "returned by "+shortFuncName(callee))
}

// mathCall models the unit-transparent math helpers.
func (in *dimInterp) mathCall(call *ast.CallExpr, callee *types.Func) (dimValue, bool) {
	if callee.Pkg() == nil || callee.Pkg().Path() != "math" {
		return unknownValue(), false
	}
	switch callee.Name() {
	case "Abs", "Floor", "Ceil", "Round", "Trunc":
		if len(call.Args) == 1 {
			return in.eval(call.Args[0]), true
		}
	case "Max", "Min":
		if len(call.Args) == 2 {
			x, y := in.eval(call.Args[0]), in.eval(call.Args[1])
			in.checkPair(x, y, call.Pos(), "math."+callee.Name())
			return in.additiveJoin(x, y), true
		}
	case "Mod", "Remainder":
		if len(call.Args) == 2 {
			v := in.eval(call.Args[0])
			in.eval(call.Args[1])
			return v, true
		}
	}
	// Other math functions change or destroy dimensions; evaluate args
	// and return unknown.
	for _, a := range call.Args {
		in.eval(a)
	}
	return unknownValue(), true
}

func (in *dimInterp) additiveJoin(x, y dimValue) dimValue {
	if x.has() {
		return x
	}
	return y
}

// bindArgs flows call arguments into the callee's parameter cells
// (intra-package joins; cross-package annotation checks).
func (in *dimInterp) bindArgs(call *ast.CallExpr, callee *types.Func) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		v := in.eval(arg)
		var param *types.Var
		switch {
		case sig.Variadic() && i >= np-1:
			param = sig.Params().At(np - 1)
		case i < np:
			param = sig.Params().At(i)
		}
		if param == nil {
			continue
		}
		in.flowInto(param, v, arg.Pos(),
			fmt.Sprintf("argument %q of %s", param.Name(), shortFuncName(callee)))
	}
}

// compositeLit flows keyed struct-literal values into field cells.
func (in *dimInterp) compositeLit(cl *ast.CompositeLit) {
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			in.eval(elt)
			continue
		}
		v := in.eval(kv.Value)
		if key, ok := kv.Key.(*ast.Ident); ok {
			if obj := in.info().Uses[key]; obj != nil {
				if fv, ok := obj.(*types.Var); ok && fv.IsField() {
					in.flowInto(fv, v, kv.Value.Pos(), fmt.Sprintf("field %q literal", key.Name))
					continue
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Rendering.

// pos renders a position as base-file:line for inclusion in messages.
func (in *dimInterp) pos(p token.Pos) string {
	position := in.pkg.Fset.Position(p)
	return fmt.Sprintf("%s:%d", filepath.Base(position.Filename), position.Line)
}

// describe renders a value's unit with its example flow path,
// seed-first: `us from //rap:unit us on "Capacity" (capacity.go:24) ->
// assigned to "total" (costmodel.go:37)`.
func (in *dimInterp) describe(v dimValue) string {
	if !v.has() {
		return "unknown"
	}
	var steps []*dimStep
	for s := v.prov; s != nil; s = s.prev {
		steps = append(steps, s)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s", v.u)
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		if i == len(steps)-1 {
			fmt.Fprintf(&b, " from %s (%s)", s.desc, in.pos(s.pos))
		} else {
			fmt.Fprintf(&b, " -> %s (%s)", s.desc, in.pos(s.pos))
		}
	}
	return b.String()
}
