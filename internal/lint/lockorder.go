package lint

import (
	"strings"
)

// LockOrder reports cycles in the static lock-acquisition graph:
// acquiring lock B while holding lock A adds the edge A -> B, both for
// direct nested acquisitions and for calls made under A to functions
// that (transitively, along the static call graph) acquire B. A cycle
// means two executions can acquire the same locks in opposite orders —
// a potential deadlock — and the finding carries one example of the
// reverse acquisition closing the cycle.
//
// Lock identity is the resolved mutex object; struct-field mutexes are
// qualified by the rendered base expression, so `a.mu` and `b.mu` on
// two parameters of the same type are distinct locks (the classic
// transfer(a, b)/transfer(b, a) deadlock), at the cost of depending on
// consistent naming across functions. Self-edges (re-acquiring the same
// key) are skipped: instance aliasing makes them too noisy to report.
//
// Per-package reports only consume acquisition edges contributed by the
// package itself and its dependency closure (the dependency-closure
// rule shared with the v3 SSA layer), and a cycle is reported in the package
// contributing its first edge, so joint runs do not double-report.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock-acquisition cycle across the call graph (potential deadlock)",
	Run:  runLockOrder,
}

func runLockOrder(p *Pass) {
	facts := p.Prog.concFacts()
	closure := facts.depClosure(p.Path)

	// The visible subgraph: edges from this package and its deps.
	var visible []lockEdge
	adj := map[lockKey][]int{}
	for _, e := range facts.edges {
		if closure == nil || !closure[e.pkg] {
			continue
		}
		adj[e.from] = append(adj[e.from], len(visible))
		visible = append(visible, e)
	}

	reported := map[string]bool{}
	for _, e := range visible {
		if e.pkg != p.Path {
			continue
		}
		back := pathBetween(visible, adj, e.to, e.from)
		if back == nil {
			continue
		}
		cycle := append([]lockEdge{e}, back...)
		id := cycleID(facts, cycle)
		if reported[id] {
			continue
		}
		reported[id] = true

		var names []string
		names = append(names, facts.lockDisplay(e.from), facts.lockDisplay(e.to))
		for _, b := range back {
			names = append(names, facts.lockDisplay(b.to))
		}
		via := ""
		if e.via != "" {
			via = " (via " + e.via + ")"
		}
		ex := back[0]
		exVia := ""
		if ex.via != "" {
			exVia = " via " + ex.via
		}
		p.Report(e.pos, "lock order cycle %s: %s acquired while holding %s%s, but the reverse order is taken at %s%s (potential deadlock)",
			strings.Join(names, " -> "), facts.lockDisplay(e.to), facts.lockDisplay(e.from), via,
			shortPos(p.Fset, ex.pos), exVia)
	}
}

// pathBetween finds a shortest edge path from `from` to `to` in the
// visible subgraph (BFS in insertion order, so the result and therefore
// the finding text are deterministic), or nil.
func pathBetween(edges []lockEdge, adj map[lockKey][]int, from, to lockKey) []lockEdge {
	type step struct {
		key  lockKey
		path []lockEdge
	}
	visited := map[lockKey]bool{from: true}
	queue := []step{{key: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, i := range adj[cur.key] {
			e := edges[i]
			if e.to == to {
				return append(append([]lockEdge(nil), cur.path...), e)
			}
			if visited[e.to] {
				continue
			}
			visited[e.to] = true
			queue = append(queue, step{key: e.to, path: append(append([]lockEdge(nil), cur.path...), e)})
		}
	}
	return nil
}

// cycleID canonicalizes a cycle (rotation-invariant) for dedupe.
func cycleID(facts *concFacts, cycle []lockEdge) string {
	names := make([]string, len(cycle))
	for i, e := range cycle {
		names[i] = facts.lockDisplay(e.from)
	}
	best := 0
	for i := 1; i < len(names); i++ {
		if names[i] < names[best] {
			best = i
		}
	}
	rotated := append(append([]string(nil), names[best:]...), names[:best]...)
	return strings.Join(rotated, "\x00")
}
