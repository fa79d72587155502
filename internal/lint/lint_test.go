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
)

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
// `// want` comments. importPath controls the scope the rule sees.
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
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	cfg := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := cfg.Check(importPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return &Package{Path: importPath, Fset: fset, Files: files, Types: tpkg, Info: info}, wants
}

// TestAnalyzers runs seededrand over its fixtures: every `// want` line
// must produce exactly one matching finding, and nothing else may be
// reported. The scope fixture (the same calls under a cmd/ import path)
// carries no want lines and must stay silent.
func TestAnalyzers(t *testing.T) {
	tests := []struct {
		name string
		dir  string
		path string
	}{
		{"seededrand internal", "seededrand_internal", "rap/internal/simfix"},
		{"seededrand out of scope", "seededrand_cmd", "rap/cmd/fix"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pkg, wants := loadFixture(t, filepath.Join("testdata", "src", tc.dir), tc.path)
			matchWants(t, seededRand(pkg), wants)
		})
	}
}

// matchWants asserts that findings and `// want` expectations agree
// exactly: each want line matched by one finding, nothing extra.
func matchWants(t *testing.T, findings []finding, wants []expectation) {
	t.Helper()
	matched := make([]bool, len(wants))
	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == f.pos.Filename && w.line == f.pos.Line && strings.Contains(f.msg, w.substr) {
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

// TestTreeClean enforces seededrand: it loads every package of the
// module from source and fails on each use of global math/rand state or
// the wall clock in non-test internal/ code.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := load(moduleRoot(t), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range seededRand(pkg) {
			t.Error(f)
		}
	}
}
