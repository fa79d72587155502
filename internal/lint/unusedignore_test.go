package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
	"time"
)

// TestUnusedIgnore: a directive that suppressed a finding survives; a
// stale one is reported after the package's other analyzers.
func TestUnusedIgnore(t *testing.T) {
	findings := checkSource(t, "rap/internal/inline", `package p

func cmp(a, b float64) bool {
	//lint:ignore floateq fixture exercising a consumed directive
	return a == b
}

func stale(a, b int) bool {
	//lint:ignore floateq fixture directive that suppresses nothing
	return a == b
}
`, []*Analyzer{FloatEq, UnusedIgnore})
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 unusedignore finding: %v", len(findings), findings)
	}
	if f := findings[0]; f.Analyzer != UnusedIgnore.Name || f.Pos.Line != 9 || !strings.Contains(f.Message, "suppresses no finding") {
		t.Fatalf("unexpected finding: %v", f)
	}
}

// TestUnusedIgnoreUnknownAnalyzer: a directive naming an analyzer that
// is not registered gets the distinct unknown-analyzer message.
func TestUnusedIgnoreUnknownAnalyzer(t *testing.T) {
	findings := checkSource(t, "rap/internal/inline", `package p

func f(a, b int) bool {
	//lint:ignore floatqe typo for floateq; can never fire
	return a == b
}
`, All())
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "unknown analyzer floatqe") {
		t.Fatalf("want one unknown-analyzer finding, got %v", findings)
	}
}

// TestUnusedIgnorePerPackage: every directive is consumed, or not, by
// its own package's passes, so raplint on a narrow pattern selecting
// one package reports exactly that package's stale directive and keeps
// its used one.
func TestUnusedIgnorePerPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a fixture package through go list")
	}
	const dir = "testdata/src/unusedignore"
	_, wants := loadFixture(t, dir, "rap/internal/lint/"+dir)
	if len(wants) != 1 {
		t.Fatalf("fixture must carry one want expectation, got %v", wants)
	}
	findings, _, err := Run(".", []string{"./" + dir}, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want the one stale directive: %v", len(findings), findings)
	}
	f, w := findings[0], wants[0]
	if f.Analyzer != UnusedIgnore.Name || !strings.HasSuffix(f.Pos.Filename, w.file) || f.Pos.Line != w.line || !strings.Contains(f.Message, w.substr) {
		t.Fatalf("got %v, want an unusedignore finding at %s:%d containing %q", f, w.file, w.line, w.substr)
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
		Analyzer: "floateq",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 2},
		Message:  "compares exact bits",
	}}
	stats := &Stats{Packages: 1, PerAnalyzer: map[string]time.Duration{"floateq": time.Millisecond}}

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
	if rep.RaplintVersion == "" || len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "floateq" ||
		rep.Findings[0].Line != 3 || rep.Stats.Packages != 1 {
		t.Fatalf("unexpected JSON report: %s", buf.String())
	}
}
