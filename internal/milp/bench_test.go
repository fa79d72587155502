package milp

import (
	"math/rand"
	"testing"
)

// BenchmarkSolvePlanSized measures the branch & bound on a per-GPU
// fusion problem of realistic size (60 ops, 6 types, chain deps). The
// search exhausts its 200k-node budget, so ns/node is the per-node cost.
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
