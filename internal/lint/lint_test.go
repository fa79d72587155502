package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// runUntimed applies the analyzers to one loaded package like the
// driver does, discarding the per-analyzer wall times.
func runUntimed(pkg *Package, analyzers []*Analyzer, out *[]Finding) {
	runPackage(pkg, analyzers, out, map[string]time.Duration{})
}

// wantRe marks expected findings in fixtures: `// want "substr"` on the
// offending line.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type expectation struct {
	file   string
	line   int
	substr string
}

// loadFixture parses and type-checks one fixture package under
// testdata/src, returning it with the expectations embedded in its
// `// want` comments. importPath controls the scope the analyzers see.
func loadFixture(t *testing.T, dir, importPath string) (*Package, []expectation) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var wants []expectation
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
	cfg := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, info, err := checkFiles(cfg, importPath, fset, files)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return &Package{Path: importPath, Name: tpkg.Name(), Fset: fset, Files: files, Types: tpkg, Info: info}, wants
}

// checkFiles type-checks files recording the Info maps the analyzers
// read: Types and Uses.
func checkFiles(cfg types.Config, importPath string, fset *token.FileSet, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tpkg, err := cfg.Check(importPath, fset, files, info)
	return tpkg, info, err
}

// TestAnalyzers runs each analyzer over its fixtures: every `// want`
// line must produce exactly one matching finding, and nothing else may
// be reported. Scope fixtures (same code under an out-of-scope import
// path) carry no want lines and must stay silent.
func TestAnalyzers(t *testing.T) {
	tests := []struct {
		name     string
		analyzer *Analyzer
		dir      string
		path     string
	}{
		{"seededrand internal", SeededRand, "seededrand_internal", "rap/internal/simfix"},
		{"seededrand out of scope", SeededRand, "seededrand_cmd", "rap/cmd/fix"},
		{"floateq", FloatEq, "floateq", "rap/internal/floatfix"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pkg, wants := loadFixture(t, filepath.Join("testdata", "src", tc.dir), tc.path)
			var findings []Finding
			runUntimed(pkg, []*Analyzer{tc.analyzer}, &findings)
			SortFindings(findings)
			matchWants(t, findings, wants)
		})
	}
}

// matchWants asserts that findings and `// want` expectations agree
// exactly: each want line matched by one finding, nothing extra.
func matchWants(t *testing.T, findings []Finding, wants []expectation) {
	t.Helper()
	matched := make([]bool, len(wants))
	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == f.Pos.Filename && w.line == f.Pos.Line && strings.Contains(f.Message, w.substr) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %v", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing finding at %s:%d containing %q", w.file, w.line, w.substr)
		}
	}
}

// inlinePackage type-checks an inline dependency-free source string
// into a loaded Package.
func inlinePackage(t *testing.T, importPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "inline.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing inline source: %v", err)
	}
	cfg := types.Config{Importer: importer.Default()}
	tpkg, info, err := checkFiles(cfg, importPath, fset, []*ast.File{f})
	if err != nil {
		t.Fatalf("type-checking inline source: %v", err)
	}
	return &Package{Path: importPath, Name: tpkg.Name(), Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// checkSource type-checks an inline dependency-free source string and
// runs the analyzers over it.
func checkSource(t *testing.T, importPath, src string, analyzers []*Analyzer) []Finding {
	t.Helper()
	pkg := inlinePackage(t, importPath, src)
	var findings []Finding
	runUntimed(pkg, analyzers, &findings)
	SortFindings(findings)
	return findings
}

// TestIgnoreRequiresReason: a //lint:ignore directive without a reason
// is itself a finding and suppresses nothing.
func TestIgnoreRequiresReason(t *testing.T) {
	findings := checkSource(t, "rap/internal/inline", `package p

func sloppy(a, b float64) bool {
	//lint:ignore floateq
	return a == b
}
`, []*Analyzer{FloatEq})
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (missing reason + unsuppressed floateq): %v", len(findings), findings)
	}
	if !strings.Contains(findings[0].Message, "mandatory reason") {
		t.Errorf("first finding should flag the missing reason, got: %v", findings[0])
	}
	if findings[1].Analyzer != "floateq" {
		t.Errorf("bare directive must not suppress the finding, got: %v", findings[1])
	}
}

// TestIgnoreWrongAnalyzer: a directive only suppresses the analyzer it
// names.
func TestIgnoreWrongAnalyzer(t *testing.T) {
	findings := checkSource(t, "rap/internal/inline", `package p

func sloppy(a, b float64) bool {
	//lint:ignore seededrand reason that names the wrong analyzer
	return a == b
}
`, []*Analyzer{FloatEq})
	if len(findings) != 1 || findings[0].Analyzer != "floateq" {
		t.Fatalf("got %v, want exactly the unsuppressed floateq finding", findings)
	}
}

// TestTrailingIgnore: a directive as a trailing comment covers its own
// line.
func TestTrailingIgnore(t *testing.T) {
	findings := checkSource(t, "rap/internal/inline", `package p

func bitwise(a, b float64) bool {
	return a == b //lint:ignore floateq intentional bit comparison
}
`, []*Analyzer{FloatEq})
	if len(findings) != 0 {
		t.Fatalf("got %v, want no findings", findings)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// TestTreeClean runs the full raplint suite over the module: the tree
// must stay finding-free, so a reintroduced violation fails tier-1
// tests even when the verify script is skipped.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	findings, _, err := Run(moduleRoot(t), []string{"./..."}, All())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%v", f)
	}
}
