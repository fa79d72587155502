package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden report files under testdata/golden")

// TestReportGolden pins the exact JSON encoding of one finding each
// from floateq and seededrand. The Go toolchain version
// embedded in the JSON report is normalized to GOVERSION so the file
// survives toolchain bumps; regenerate intentional changes with
// `go test ./internal/lint -run TestReportGolden -update`.
func TestReportGolden(t *testing.T) {
	pkg, _ := loadFixture(t, filepath.Join("testdata", "src", "reportgolden"), "rap/internal/reportgolden")
	suite := []*Analyzer{FloatEq, SeededRand}
	var findings []Finding
	runUntimed(pkg, suite, &findings)
	SortFindings(findings)

	counts := map[string]int{}
	for _, f := range findings {
		counts[f.Analyzer]++
	}
	for _, a := range suite {
		if counts[a.Name] != 1 {
			t.Fatalf("golden fixture must yield exactly one %s finding, got %d: %v", a.Name, counts[a.Name], findings)
		}
	}
	if len(findings) != len(suite) {
		t.Fatalf("golden fixture must yield exactly %d findings, got %v", len(suite), findings)
	}

	var jsonBuf bytes.Buffer
	if err := WriteJSONReport(&jsonBuf, ".", findings, nil); err != nil {
		t.Fatalf("WriteJSONReport: %v", err)
	}
	jsonOut := strings.ReplaceAll(jsonBuf.String(), runtime.Version(), "GOVERSION")
	compareGolden(t, "report.json", jsonOut)
}

// compareGolden diffs got against testdata/golden/<name>, rewriting the
// file instead when -update is set.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("creating golden dir: %v", err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("writing golden %s: %v", name, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (regenerate with -update): %v", name, err)
	}
	if got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("golden %s line %d:\n  got:  %s\n  want: %s", name, i+1, g, w)
			}
		}
	}
}
