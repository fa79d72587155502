package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTimelineReadersGolden renders the four experiments that read
// gpusim's utilization timelines (Figure 1(a), Figure 11, Table 4 and
// the power study) with rapbench's default arguments, and compares the
// output byte for byte with testdata/timeline_readers.txt. Regenerate
// that file only for a deliberate change to these results:
//
//	go run ./cmd/rapbench -exp fig1a,fig11,tab4,power > internal/experiments/testdata/timeline_readers.txt
func TestTimelineReadersGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "timeline_readers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	show := func(id string, r interface{ Render() string }, err error) {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(&b, "==================== %s ====================\n%s\n", id, r.Render())
	}
	f1a, err := Figure1a()
	show("fig1a", f1a, err)
	f11, err := Figure11([]int{0, 8, 16, 32, 64, 96, 128}, 4)
	show("fig11", f11, err)
	show("tab4", Table4(f11), nil)
	power, err := PowerStudy(1, 4)
	show("power", power, err)
	if got := b.String(); got != string(want) {
		t.Errorf("rendered output differs from testdata/timeline_readers.txt:\n%s", got)
	}
}
