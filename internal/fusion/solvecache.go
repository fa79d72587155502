package fusion

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

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

// solveKey is the deep content hash of everything the solver reads.
func solveKey(p milp.Problem) string {
	h := sha256.New()
	fmt.Fprintf(h, "horizon %d maxnodes %d\n", p.Horizon, p.MaxNodes)
	for i, t := range p.Types {
		fmt.Fprintf(h, "%d:%d deps", i, t)
		for _, d := range p.Deps[i] {
			fmt.Fprintf(h, " %d", d)
		}
		fmt.Fprintf(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}
