package fusion

import (
	"encoding/binary"

	"rap/internal/memo"
	"rap/internal/milp"
)

// SolveCache memoizes MILP fusion solutions by solveKey. The branch &
// bound is deterministic — the same (types, deps, horizon, budget)
// always yields the same solution — so a hit returns exactly what a
// fresh solve would, and callers sharing a cache across plans (the
// replanning loop) skip the search entirely. Hits share the stored
// Step slice; PlanFusionScaled only reads it.
type SolveCache = memo.Cache[string, milp.Solution]

// NewSolveCache returns an empty solve cache.
func NewSolveCache() *SolveCache { return memo.New[string, milp.Solution]() }

// solveKey is the exact content of everything the solver reads, as
// varints: horizon, node budget, op count, then each op's type, dependency
// count and dependencies. Every list is length-prefixed, so two problems
// share a key only when they are equal.
func solveKey(p milp.Problem) string {
	n := 3 + 2*len(p.Types)
	for _, ds := range p.Deps {
		n += len(ds)
	}
	b := make([]byte, 0, 2*n)
	b = binary.AppendVarint(b, int64(p.Horizon))
	b = binary.AppendVarint(b, int64(p.MaxNodes))
	b = binary.AppendUvarint(b, uint64(len(p.Types)))
	for i, t := range p.Types {
		b = binary.AppendVarint(b, int64(t))
		b = binary.AppendUvarint(b, uint64(len(p.Deps[i])))
		for _, d := range p.Deps[i] {
			b = binary.AppendVarint(b, int64(d))
		}
	}
	return string(b)
}
