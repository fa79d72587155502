// Package topo describes hierarchical GPU cluster topologies: GPUs
// grouped into NVSwitch nodes, nodes joined by an oversubscribed
// inter-node fabric. It is the shape vocabulary shared by the gpusim
// simulator (which charges cross-node transfers against per-node fabric
// links, see gpusim.SetTopology) and the cluster fleet simulator (which
// places jobs onto nodes).
//
// A topology is pure structure: it owns no simulator state and imports
// nothing from the rest of the repo. The flat single-node topology —
// Flat(n), or no topology at all — is the identity: a simulator given
// one behaves bit-identically to one that predates this package (the
// golden-digest back-compat suite pins this).
package topo

import (
	"fmt"
	"strings"
)

// Topology is an immutable GPU → node assignment plus the inter-node
// fabric parameters. Construct one with Flat, Uniform, or FromNodeOf;
// the zero value is invalid.
type Topology struct {
	// nodeOf[g] is the node index of GPU g; node ids are contiguous
	// starting at 0. Unexported: the constructors establish the
	// contiguity invariant once and nothing can break it afterwards.
	nodeOf []int
	nodes  int

	// FabricGBs is each node's share of inter-node fabric bandwidth in
	// GB/s (the uplink behind which the node's GPUs reach other nodes).
	// 0 means "consumer default" — gpusim substitutes the cluster's
	// NVLink bandwidth.
	FabricGBs float64 //rap:unit GB/s
	// Oversub is the fabric oversubscription factor: the ratio of
	// aggregate GPU injection bandwidth to what the fabric core can
	// actually carry. 1 (or 0, meaning default 1) is non-blocking;
	// values above 1 shrink each fabric link's usable capacity to
	// 1/Oversub of FabricGBs. Values below 1 are invalid.
	Oversub float64
}

// Flat returns the single-node topology over gpus GPUs — the identity
// topology: no fabric links exist and simulators treat it exactly like
// having no topology at all.
func Flat(gpus int) *Topology {
	if gpus < 1 {
		gpus = 1
	}
	return &Topology{nodeOf: make([]int, gpus), nodes: 1}
}

// Uniform returns a topology of `nodes` NVSwitch nodes with gpusPerNode
// GPUs each, numbered node-major (GPU g lives on node g/gpusPerNode).
func Uniform(nodes, gpusPerNode int) *Topology {
	if nodes < 1 {
		nodes = 1
	}
	if gpusPerNode < 1 {
		gpusPerNode = 1
	}
	nodeOf := make([]int, nodes*gpusPerNode)
	for g := range nodeOf {
		nodeOf[g] = g / gpusPerNode
	}
	return &Topology{nodeOf: nodeOf, nodes: nodes}
}

// FromNodeOf builds a topology from an explicit GPU → node assignment.
// Node ids must be contiguous from 0 (every node in [0, max] has at
// least one GPU); nodes need not hold contiguous GPU ranges.
func FromNodeOf(nodeOf []int) (*Topology, error) {
	if len(nodeOf) == 0 {
		return nil, fmt.Errorf("topo: empty GPU → node assignment")
	}
	max := -1
	for g, n := range nodeOf {
		if n < 0 {
			return nil, fmt.Errorf("topo: gpu %d has negative node %d", g, n)
		}
		if n > max {
			max = n
		}
	}
	seen := make([]bool, max+1)
	for _, n := range nodeOf {
		seen[n] = true
	}
	for n, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("topo: node %d has no GPUs (node ids must be contiguous from 0)", n)
		}
	}
	return &Topology{nodeOf: append([]int(nil), nodeOf...), nodes: max + 1}, nil
}

// NumGPUs returns the GPU count.
func (t *Topology) NumGPUs() int { return len(t.nodeOf) }

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return t.nodes }

// NodeOf returns the node of GPU g, or -1 when g is out of range (the
// defined-zero-value convention of the simulator's query surface).
func (t *Topology) NodeOf(g int) int {
	if g < 0 || g >= len(t.nodeOf) {
		return -1
	}
	return t.nodeOf[g]
}

// Validate checks the topology's structural and fabric parameters.
func (t *Topology) Validate() error {
	if t == nil {
		return nil
	}
	if len(t.nodeOf) == 0 || t.nodes < 1 {
		return fmt.Errorf("topo: topology has no GPUs (use Flat/Uniform/FromNodeOf)")
	}
	for g, n := range t.nodeOf {
		if n < 0 || n >= t.nodes {
			return fmt.Errorf("topo: gpu %d on node %d outside [0,%d)", g, n, t.nodes)
		}
	}
	if t.FabricGBs < 0 {
		return fmt.Errorf("topo: fabric bandwidth %g GB/s must be non-negative", t.FabricGBs)
	}
	if t.Oversub < 0 || (t.Oversub > 0 && t.Oversub < 1) {
		return fmt.Errorf("topo: oversubscription %g must be >= 1 (or 0 for the default of 1)", t.Oversub)
	}
	return nil
}

// Subset returns the topology seen by a job allocated the given fleet
// GPUs: GPU i of the subset is fleet GPU gpus[i], and subset nodes are
// the distinct fleet nodes renumbered by first appearance (so the
// result satisfies the contiguity invariant deterministically). Fabric
// parameters are inherited: a job spanning two fleet nodes still
// crosses the same oversubscribed fabric, it just can't see the other
// tenants (model cross-tenant contention separately, e.g. with
// gpusim.Sim.SetFabricScale).
func (t *Topology) Subset(gpus []int) (*Topology, error) {
	if len(gpus) == 0 {
		return nil, fmt.Errorf("topo: empty GPU subset")
	}
	taken := make([]bool, len(t.nodeOf))
	renum := make([]int, t.nodes)
	for i := range renum {
		renum[i] = -1
	}
	nodeOf := make([]int, len(gpus))
	next := 0
	for i, g := range gpus {
		if g < 0 || g >= len(t.nodeOf) {
			return nil, fmt.Errorf("topo: subset gpu %d out of range [0,%d)", g, len(t.nodeOf))
		}
		if taken[g] {
			return nil, fmt.Errorf("topo: subset lists gpu %d twice", g)
		}
		taken[g] = true
		n := t.nodeOf[g]
		if renum[n] < 0 {
			renum[n] = next
			next++
		}
		nodeOf[i] = renum[n]
	}
	return &Topology{nodeOf: nodeOf, nodes: next, FabricGBs: t.FabricGBs, Oversub: t.Oversub}, nil
}

// String renders the topology compactly, e.g. "128×8 gpus,
// fabric 100 GB/s oversub 4".
func (t *Topology) String() string {
	var b strings.Builder
	per := len(t.nodeOf) / t.nodes
	uniform := per*t.nodes == len(t.nodeOf)
	if uniform {
		for g, n := range t.nodeOf {
			if n != g/per {
				uniform = false
				break
			}
		}
	}
	if uniform {
		fmt.Fprintf(&b, "%d×%d gpus", t.nodes, per)
	} else {
		fmt.Fprintf(&b, "%d gpus on %d nodes", len(t.nodeOf), t.nodes)
	}
	if t.nodes > 1 {
		if t.FabricGBs > 0 {
			fmt.Fprintf(&b, ", fabric %g GB/s", t.FabricGBs)
		}
		if t.Oversub > 1 {
			fmt.Fprintf(&b, " oversub %g", t.Oversub)
		}
	}
	return b.String()
}
