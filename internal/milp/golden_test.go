package milp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/solve_golden.json from the current solver")

// goldenInstance is one pinned problem and the solution Solve returned
// for it. The problems are stored, not regenerated, so the file stays
// the oracle whatever the generator was: 256 seeded random instances
// (1–40 ops, 1–6 types with sparse or negative ids, op ids shuffled so
// topological order differs from index order, Horizon 0, exactly the
// critical path or above it, MaxNodes 1–50k) and the per-GPU problems of
// Terabyte plans 2 and 3 on 4 GPUs at fusion's default budgets.
type goldenInstance struct {
	Name      string  `json:"name"`
	Types     []int   `json:"types"`
	Deps      [][]int `json:"deps"`
	Horizon   int     `json:"horizon"`
	MaxNodes  int     `json:"max_nodes"`
	Step      []int   `json:"step"`
	Objective int64   `json:"objective"`
	Optimal   bool    `json:"optimal"`
	Nodes     int     `json:"nodes"`
}

// TestSolveGolden pins the search trajectory: every Solution field of
// every instance, exactly. Same nodes in the same order give the same
// Nodes count and the same incumbent, so any change to candidate order,
// the bound or the budget accounting shows here. Regenerate
// deliberately with `go test ./internal/milp -run SolveGolden -update`.
func TestSolveGolden(t *testing.T) {
	path := filepath.Join("testdata", "solve_golden.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var insts []goldenInstance
	if err := json.Unmarshal(raw, &insts); err != nil {
		t.Fatal(err)
	}
	if len(insts) == 0 {
		t.Fatal("empty golden file")
	}
	for i := range insts {
		in := &insts[i]
		p := Problem{Types: in.Types, Deps: in.Deps, Horizon: in.Horizon, MaxNodes: in.MaxNodes}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if *update {
			in.Step, in.Objective, in.Optimal, in.Nodes = sol.Step, sol.Objective, sol.Optimal, sol.Nodes
			continue
		}
		want := Solution{Step: in.Step, Objective: in.Objective, Optimal: in.Optimal, Nodes: in.Nodes}
		if !reflect.DeepEqual(sol, want) {
			t.Errorf("%s: solution drifted:\ngot  %+v\nwant %+v", in.Name, sol, want)
		}
	}
	if *update {
		// One instance per line keeps diffs readable.
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, in := range insts {
			b, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			if i < len(insts)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
