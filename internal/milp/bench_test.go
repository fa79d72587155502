package milp

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// BenchmarkSolvePlanSized measures the branch & bound on a per-GPU
// fusion problem of realistic size (60 ops, 6 types, chain deps). The
// search exhausts its 200k-node budget. Pruned siblings and leaves that
// cannot win are counted in bulk without being visited, so ns/node is
// time per counted node, below the cost of a node that is expanded.
func BenchmarkSolvePlanSized(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 60
	types := make([]int, n)
	deps := make([][]int, n)
	for i := 0; i < n; i++ {
		types[i] = rng.Intn(6)
		if i%4 != 0 {
			deps[i] = []int{i - 1}
		}
	}
	p := Problem{Types: types, Deps: deps, MaxNodes: 200_000}
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		sol, err := Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		nodes += sol.Nodes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}

// BenchmarkSolveGoldenPlans solves the eight pinned per-GPU problems of
// Terabyte plans 2 and 3 on 4 GPUs from testdata/solve_golden.json, at
// fusion's default budgets: the solves `dense` and `wide` run. One
// iteration is all eight.
func BenchmarkSolveGoldenPlans(b *testing.B) {
	raw, err := os.ReadFile(filepath.Join("testdata", "solve_golden.json"))
	if err != nil {
		b.Fatal(err)
	}
	var insts []goldenInstance
	if err := json.Unmarshal(raw, &insts); err != nil {
		b.Fatal(err)
	}
	var probs []Problem
	for _, in := range insts {
		if strings.HasPrefix(in.Name, "terabyte-plan") {
			probs = append(probs, Problem{Types: in.Types, Deps: in.Deps, Horizon: in.Horizon, MaxNodes: in.MaxNodes})
		}
	}
	if len(probs) != 8 {
		b.Fatalf("%d Terabyte plan instances, want 8", len(probs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range probs {
			if _, err := Solve(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
