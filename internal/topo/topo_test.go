package topo

import (
	"strings"
	"testing"
)

func TestFlatAndUniform(t *testing.T) {
	f := Flat(8)
	if f.NumGPUs() != 8 || f.NumNodes() != 1 {
		t.Fatalf("Flat(8): %d gpus on %d nodes", f.NumGPUs(), f.NumNodes())
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Flat(8).Validate: %v", err)
	}
	if f.crossNode(0, 7) {
		t.Fatalf("flat topology reports a cross-node pair")
	}

	u := Uniform(4, 2)
	if u.NumGPUs() != 8 || u.NumNodes() != 4 {
		t.Fatalf("Uniform(4,2): %d gpus on %d nodes", u.NumGPUs(), u.NumNodes())
	}
	if u.NodeOf(0) != 0 || u.NodeOf(1) != 0 || u.NodeOf(2) != 1 || u.NodeOf(7) != 3 {
		t.Fatalf("Uniform(4,2) node assignment wrong: %d %d %d %d",
			u.NodeOf(0), u.NodeOf(1), u.NodeOf(2), u.NodeOf(7))
	}
	if !u.crossNode(1, 2) || u.crossNode(2, 3) {
		t.Fatalf("CrossNode wrong: 1-2=%v 2-3=%v", u.crossNode(1, 2), u.crossNode(2, 3))
	}
	if u.nodeSize(0) != 2 || u.nodeSize(3) != 2 || u.nodeSize(4) != 0 {
		t.Fatalf("NodeSize wrong: %d %d %d", u.nodeSize(0), u.nodeSize(3), u.nodeSize(4))
	}
	if u.NodeOf(-1) != -1 || u.NodeOf(8) != -1 {
		t.Fatalf("out-of-range NodeOf should be -1")
	}
}

func TestFromNodeOf(t *testing.T) {
	tp, err := FromNodeOf([]int{0, 1, 0, 1, 2})
	if err != nil {
		t.Fatalf("FromNodeOf: %v", err)
	}
	if tp.NumNodes() != 3 || tp.nodeSize(0) != 2 || tp.nodeSize(2) != 1 {
		t.Fatalf("FromNodeOf shape wrong: nodes=%d sizes=%d,%d",
			tp.NumNodes(), tp.nodeSize(0), tp.nodeSize(2))
	}
	for _, bad := range [][]int{
		nil,     // empty
		{0, 2},  // node 1 missing
		{0, -1}, // negative node
	} {
		if _, err := FromNodeOf(bad); err == nil {
			t.Fatalf("FromNodeOf(%v) should fail", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	var nilTopo *Topology
	if err := nilTopo.Validate(); err != nil {
		t.Fatalf("nil topology must validate: %v", err)
	}
	if err := (&Topology{}).Validate(); err == nil {
		t.Fatalf("zero-value topology must not validate")
	}
	bad := Uniform(2, 2)
	bad.Oversub = 0.5
	if err := bad.Validate(); err == nil {
		t.Fatalf("oversub < 1 must not validate")
	}
	bad = Uniform(2, 2)
	bad.FabricGBs = -1
	if err := bad.Validate(); err == nil {
		t.Fatalf("negative fabric bandwidth must not validate")
	}
	ok := Uniform(2, 2)
	ok.FabricGBs = 100
	ok.Oversub = 4
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSubset(t *testing.T) {
	u := Uniform(4, 2) // nodes: {0,1} {2,3} {4,5} {6,7}
	u.FabricGBs = 100
	u.Oversub = 4

	// A subset spanning nodes 3 and 1 (in that order): nodes renumber by
	// first appearance, so fleet node 3 becomes subset node 0.
	sub, err := u.Subset([]int{6, 7, 2})
	if err != nil {
		t.Fatalf("Subset: %v", err)
	}
	if sub.NumGPUs() != 3 || sub.NumNodes() != 2 {
		t.Fatalf("subset shape: %d gpus on %d nodes", sub.NumGPUs(), sub.NumNodes())
	}
	if sub.NodeOf(0) != 0 || sub.NodeOf(1) != 0 || sub.NodeOf(2) != 1 {
		t.Fatalf("subset renumbering wrong: %d %d %d", sub.NodeOf(0), sub.NodeOf(1), sub.NodeOf(2))
	}
	if sub.FabricGBs != 100 || sub.Oversub != 4 {
		t.Fatalf("subset must inherit fabric params, got %g/%g", sub.FabricGBs, sub.Oversub)
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("subset must validate: %v", err)
	}

	// Single-node subset collapses to flat.
	flat, err := u.Subset([]int{4, 5})
	if err != nil {
		t.Fatalf("Subset: %v", err)
	}
	if flat.NumNodes() != 1 {
		t.Fatalf("same-node subset should be 1 node, got %d", flat.NumNodes())
	}

	for _, bad := range [][]int{
		{},     // empty
		{0, 0}, // duplicate
		{0, 8}, // out of range
		{-1},   // out of range
	} {
		if _, err := u.Subset(bad); err == nil {
			t.Fatalf("Subset(%v) should fail", bad)
		}
	}
}

func TestString(t *testing.T) {
	u := Uniform(128, 8)
	u.FabricGBs = 100
	u.Oversub = 4
	s := u.String()
	for _, want := range []string{"128×8", "100", "oversub 4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if s := Flat(4).String(); !strings.Contains(s, "1×4") {
		t.Fatalf("Flat(4).String() = %q", s)
	}
	irr, err := FromNodeOf([]int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := irr.String(); !strings.Contains(s, "3 gpus on 2 nodes") {
		t.Fatalf("irregular String() = %q", s)
	}
}

// nodeSize returns the number of GPUs on node n; 0 when out of range.
func (t *Topology) nodeSize(n int) int {
	if n < 0 || n >= t.nodes {
		return 0
	}
	c := 0
	for _, m := range t.nodeOf {
		if m == n {
			c++
		}
	}
	return c
}

// crossNode reports whether GPUs a and b live on different nodes.
// Out-of-range indices report false (they cross nothing).
func (t *Topology) crossNode(a, b int) bool {
	na, nb := t.NodeOf(a), t.NodeOf(b)
	return na >= 0 && nb >= 0 && na != nb
}
