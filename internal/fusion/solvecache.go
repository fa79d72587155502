package fusion

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"rap/internal/milp"
)

// SolveCache memoizes MILP fusion solutions by the content of the
// flattened problem. The branch & bound is deterministic — the same
// (types, deps, horizon, budget) always yields the same solution — so a
// hit returns exactly what a fresh solve would, and callers sharing a
// cache across plans (the replanning loop) skip the search entirely.
// Safe for concurrent use.
type SolveCache struct {
	mu      sync.Mutex
	entries map[string]milp.Solution // guarded by mu
	hits    int                      // guarded by mu
	misses  int                      // guarded by mu
}

// NewSolveCache returns an empty solve cache.
func NewSolveCache() *SolveCache {
	return &SolveCache{entries: map[string]milp.Solution{}}
}

// Stats reports the cache's hit/miss counts.
func (c *SolveCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

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

// lookup returns the cached solution for key, copying the steps so the
// caller cannot alias the stored slice.
func (c *SolveCache) lookup(key string) (milp.Solution, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sol, ok := c.entries[key]
	if !ok {
		c.misses++
		return milp.Solution{}, false
	}
	c.hits++
	sol.Step = append([]int(nil), sol.Step...)
	return sol, true
}

// store copies the solution into the cache.
func (c *SolveCache) store(key string, sol milp.Solution) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sol.Step = append([]int(nil), sol.Step...)
	c.entries[key] = sol
}
