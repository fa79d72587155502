// Package lint implements raplint, the project's domain-specific
// static-analysis pass. Its two analyzers encode determinism invariants
// the RAP reproduction depends on — seeded randomness and no wall
// clock, and tolerance-based float comparison — for the bugs of those
// classes that no test sees: each analyzer is kept by a committed
// mutant only it catches (scripts/mutants, DESIGN.md §6). Map order
// and float summation order are not linted; the result tests that pin
// plans, digests and sums bit for bit catch those bugs. Panics are not
// linted either; the tests that expect errors from bad inputs catch a
// panic on those paths. Physical units are not checked here: the
// `//rap:unit` comments in the simulator and planner packages are
// documentation, and the goldens and formula tests guard the unit
// arithmetic. `//rap:deterministic` on a function's doc comment is
// documentation too: seededrand polices the clock and global rand in
// every internal package, so it needs no call graph to find them.
// There is no concurrency analysis: the race detector covers the few
// goroutines and mutexes the system has, and `// guarded by` field
// comments are documentation. Run type-checks and analyzes every target
// package from source on each run, one package at a time.
//
// The pass is zero-dependency: package discovery shells out to
// `go list -json`, parsing and type checking use go/parser and
// go/types. Findings can be suppressed with an explicit annotation on
// the offending line or the line above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare directive is itself reported, and a
// directive that suppresses nothing is reported by unusedignore.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Finding is one analyzer report at a source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Analyzer is one invariant checker run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full raplint analyzer suite. UnusedIgnore's Run is a
// no-op: runPackage checks a package's directives after its other
// analyzers have reported.
func All() []*Analyzer {
	return []*Analyzer{
		SeededRand, FloatEq, UnusedIgnore,
	}
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Path is the package's import path as the build system knows it.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	ignores  *ignoreIndex
	out      *[]Finding
}

// Report records a finding at pos unless an ignore directive covers it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if d := p.ignores.covering(p.analyzer.Name, position); d != nil {
		d.used = true
		return
	}
	*p.out = append(*p.out, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one well-formed //lint:ignore in a package.
type ignoreDirective struct {
	analyzer string
	pos      token.Position
	// used records that the directive suppressed a finding in this
	// package's passes; the unusedignore check reads it afterwards.
	used bool
}

// ignoreIndex holds a package's //lint:ignore directives plus the
// findings produced for malformed ones (missing mandatory reason).
type ignoreIndex struct {
	lines map[string]map[int][]*ignoreDirective // file -> line -> directives
	all   []*ignoreDirective
	bad   []Finding // missing-reason findings, emitted once per analyzed package
}

// covering returns the directive suppressing a finding of analyzer at
// pos, or nil. A directive covers its own line (trailing comment) and
// the line directly below it (directive on its own line).
func (ix *ignoreIndex) covering(analyzer string, pos token.Position) *ignoreDirective {
	lines := ix.lines[pos.Filename]
	if lines == nil {
		return nil
	}
	for _, l := range [2]int{pos.Line, pos.Line - 1} {
		for _, d := range lines[l] {
			if d.analyzer == analyzer {
				return d
			}
		}
	}
	return nil
}

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)(\s+\S.*)?$`)

// buildIgnores scans a package's comments for //lint:ignore directives.
// Directives missing the mandatory reason become findings (emitted when
// the package is analyzed); well-formed ones enter the index.
func buildIgnores(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	ix := &ignoreIndex{lines: map[string]map[int][]*ignoreDirective{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					ix.bad = append(ix.bad, Finding{
						Analyzer: "lint",
						Pos:      pos,
						Message:  fmt.Sprintf("//lint:ignore %s is missing its mandatory reason", m[1]),
					})
					continue
				}
				d := &ignoreDirective{analyzer: m[1], pos: pos}
				lines := ix.lines[pos.Filename]
				if lines == nil {
					lines = map[int][]*ignoreDirective{}
					ix.lines[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
				ix.all = append(ix.all, d)
			}
		}
	}
	return ix
}

// runPackage applies the analyzers to one loaded package, appending
// findings to out and adding each analyzer's wall time to timings. When
// UnusedIgnore is among them, the package's directives that suppressed
// nothing are reported last.
func runPackage(pkg *Package, analyzers []*Analyzer, out *[]Finding, timings map[string]time.Duration) {
	ignores := buildIgnores(pkg.Fset, pkg.Files)
	*out = append(*out, ignores.bad...)
	checkUnused := false
	for _, a := range analyzers {
		if a == UnusedIgnore {
			checkUnused = true
			continue
		}
		pass := &Pass{
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			analyzer: a,
			ignores:  ignores,
			out:      out,
		}
		//lint:ignore seededrand raplint times its own analyzers; no simulated result depends on this clock
		start := time.Now()
		a.Run(pass)
		//lint:ignore seededrand raplint times its own analyzers; no simulated result depends on this clock
		timings[a.Name] += time.Since(start)
	}
	if checkUnused {
		*out = append(*out, ignores.unused(analyzers)...)
	}
}

// SortFindings orders findings by file, line, column, analyzer, message
// so raplint's own output is deterministic.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
