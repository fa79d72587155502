package lint

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fixtureSpec names one fixture package: its directory under
// testdata/src and the import path the analyzers should see.
type fixtureSpec struct {
	dir  string
	path string
}

// progImporter resolves fixture-internal imports to the packages
// type-checked so far and everything else through export/source data.
type progImporter struct {
	pkgs map[string]*types.Package
	std  types.Importer
}

func (im *progImporter) Import(path string) (*types.Package, error) {
	if p := im.pkgs[path]; p != nil {
		return p, nil
	}
	return im.std.Import(path)
}

// loadProgram parses and type-checks several fixture packages against a
// shared FileSet and importer — dependencies first — so cross-package
// object identities line up the way the real loader guarantees.
func loadProgram(t *testing.T, specs []fixtureSpec) ([]*Package, []expectation) {
	t.Helper()
	fset := token.NewFileSet()
	im := &progImporter{pkgs: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil)}
	var pkgs []*Package
	var wants []expectation
	for _, spec := range specs {
		dir := filepath.Join("testdata", "src", spec.dir)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading fixture dir: %v", err)
		}
		var files []*ast.File
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing fixture: %v", err)
			}
			files = append(files, f)
			for i, line := range strings.Split(string(src), "\n") {
				if m := wantRe.FindStringSubmatch(line); m != nil {
					wants = append(wants, expectation{file: path, line: i + 1, substr: m[1]})
				}
			}
		}
		cfg := types.Config{Importer: im}
		tpkg, info, err := checkFiles(cfg, spec.path, fset, files)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", spec.path, err)
		}
		im.pkgs[spec.path] = tpkg
		pkgs = append(pkgs, &Package{Path: spec.path, Name: tpkg.Name(), Fset: fset, Files: files, Types: tpkg, Info: info})
	}
	return pkgs, wants
}

// TestDetaintCrossPackage is the v1-blindness proof: a deterministic
// root package calls through an unexported helper into a utility
// package whose map iteration is order-dependent. The entire v1 local
// suite stays silent over both packages — maporder's scope is the
// deterministic package names, and the leak lives elsewhere — while
// detaint's call-graph reachability pins the site with the call path.
func TestDetaintCrossPackage(t *testing.T) {
	pkgs, wants := loadProgram(t, []fixtureSpec{
		{dir: "detaint_helper", path: "rap/internal/helperfix"},
		{dir: "detaint_sched", path: "rap/internal/sched"},
	})
	if len(wants) == 0 {
		t.Fatal("fixture carries no want expectations")
	}
	prog := NewProgram(pkgs)

	var v1 []Finding
	for _, pkg := range pkgs {
		prog.RunPackage(pkg, V1(), &v1)
	}
	if len(v1) != 0 {
		t.Fatalf("the v1 local suite must be blind to the cross-package leak, got %v", v1)
	}

	var findings []Finding
	for _, pkg := range pkgs {
		prog.RunPackage(pkg, []*Analyzer{Detaint}, &findings)
	}
	SortFindings(findings)
	matchWants(t, findings, wants)
	for _, f := range findings {
		if !strings.Contains(f.Message, "sched.Plan -> sched.expand -> helperfix.Tally") {
			t.Errorf("finding should carry the full call path, got: %v", f)
		}
	}
}

// TestDetaintIgnoreAtSite: a detaint directive at the taint site
// suppresses the finding and counts as used.
func TestDetaintIgnoreAtSite(t *testing.T) {
	findings := checkSource(t, "rap/cmd/inline", `package tool

import "time"

//rap:deterministic
func Root() int64 {
	return leaf()
}

func leaf() int64 {
	//lint:ignore detaint fixture exercising site-level suppression
	return time.Now().UnixNano()
}
`, []*Analyzer{Detaint})
	if len(findings) != 0 {
		t.Fatalf("ignored taint site must not report, got %v", findings)
	}
}

// TestDetaintMisplacedDirective: //rap:deterministic anywhere but a
// function's doc comment is itself a finding.
func TestDetaintMisplacedDirective(t *testing.T) {
	findings := checkSource(t, "rap/internal/inline", `package p

func f() int {
	//rap:deterministic
	return 1
}
`, []*Analyzer{Detaint})
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "doc comment of a function") {
		t.Fatalf("got %v, want exactly the misplaced-directive finding", findings)
	}
}

// TestUnusedIgnore: a directive that suppressed a finding survives; a
// stale one is reported by the whole-run check.
func TestUnusedIgnore(t *testing.T) {
	pkg := inlinePackage(t, "rap/internal/inline", `package p

func cmp(a, b float64) bool {
	//lint:ignore floateq fixture exercising a consumed directive
	return a == b
}

func stale(a, b int) bool {
	//lint:ignore floateq fixture directive that suppresses nothing
	return a == b
}
`)
	prog := NewProgram([]*Package{pkg})
	suite := []*Analyzer{FloatEq}
	var findings []Finding
	prog.RunPackage(pkg, suite, &findings)
	if len(findings) != 0 {
		t.Fatalf("directive should suppress the floateq finding, got %v", findings)
	}
	fs := prog.unusedIgnoreFindings([]*Package{pkg}, suite)
	if len(fs) != 1 {
		t.Fatalf("got %d unusedignore findings, want 1: %v", len(fs), fs)
	}
	if fs[0].Pos.Line != 9 || !strings.Contains(fs[0].Message, "suppresses no finding") {
		t.Fatalf("unexpected unusedignore finding: %v", fs[0])
	}
}

// TestUnusedIgnoreUnknownAnalyzer: a directive naming an analyzer that
// is not registered gets the distinct unknown-analyzer message.
func TestUnusedIgnoreUnknownAnalyzer(t *testing.T) {
	pkg := inlinePackage(t, "rap/internal/inline", `package p

func f(a, b int) bool {
	//lint:ignore floatqe typo for floateq; can never fire
	return a == b
}
`)
	prog := NewProgram([]*Package{pkg})
	var findings []Finding
	prog.RunPackage(pkg, All(), &findings)
	fs := prog.unusedIgnoreFindings([]*Package{pkg}, All())
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "unknown analyzer floatqe") {
		t.Fatalf("want one unknown-analyzer finding, got %v", fs)
	}
}

// TestUnusedIgnoreCrossPackage: a detaint directive in a helper
// package that only another package's deterministic root reaches is
// consumed by that root's pass and must not be reported as unused; the
// helper's stale directive must be. Analyzing the helper alone consumes
// neither.
func TestUnusedIgnoreCrossPackage(t *testing.T) {
	specs := []fixtureSpec{
		{dir: "unusedignore_helper", path: "rap/internal/ighelper"},
		{dir: "unusedignore_root", path: "rap/cmd/igroot"},
	}
	suite := []*Analyzer{Detaint, UnusedIgnore}

	pkgs, wants := loadProgram(t, specs)
	prog := NewProgram(pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		prog.RunPackage(pkg, suite, &findings)
	}
	if len(findings) != 0 {
		t.Fatalf("the helper's detaint directive should suppress the root's finding, got %v", findings)
	}
	fs := prog.unusedIgnoreFindings(pkgs, suite)
	SortFindings(fs)
	matchWants(t, fs, wants)

	helperOnly := NewProgram(pkgs)
	helperOnly.RunPackage(pkgs[0], suite, new([]Finding))
	if fs := helperOnly.unusedIgnoreFindings(pkgs[:1], suite); len(fs) != 2 {
		t.Fatalf("without the root's pass both helper directives are unused, got %v", fs)
	}
}

// TestLintSelfClean dogfoods the full suite on the lint package itself:
// the analyzers must pass their own checks (Run's self-timing clock
// reads carry reasoned ignores).
func TestLintSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the lint package and its deps")
	}
	findings, stats, err := Run(moduleRoot(t), []string{"./internal/lint"}, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%v", f)
	}
	if stats.Packages != 1 {
		t.Errorf("want one package analyzed, got %+v", stats)
	}
}

// TestReportEncoders smoke-tests the JSON encoding.
func TestReportEncoders(t *testing.T) {
	findings := []Finding{{
		Analyzer: "maporder",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 2},
		Message:  "iterates over a map",
	}}
	stats := &Stats{Packages: 1, PerAnalyzer: map[string]time.Duration{"maporder": time.Millisecond}}

	var buf bytes.Buffer
	if err := WriteJSONReport(&buf, ".", findings, stats); err != nil {
		t.Fatalf("WriteJSONReport: %v", err)
	}
	var rep struct {
		RaplintVersion string `json:"raplintVersion"`
		Findings       []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
		} `json:"findings"`
		Stats struct {
			Packages int `json:"packages"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decoding JSON report: %v", err)
	}
	if rep.RaplintVersion == "" || len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "maporder" ||
		rep.Findings[0].Line != 3 || rep.Stats.Packages != 1 {
		t.Fatalf("unexpected JSON report: %s", buf.String())
	}
}
