package topo

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestFlatAndUniform(t *testing.T) {
	f := Uniform(1, 8)
	if f.NumGPUs() != 8 || f.NumNodes() != 1 {
		t.Fatalf("Uniform(1,8): %d gpus on %d nodes", f.NumGPUs(), f.NumNodes())
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Uniform(1,8).Validate: %v", err)
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

// TestValidateFabricParams: Validate accepts finite fabric parameters
// in range, defaults (0) included, and rejects NaN and ±Inf for both.
func TestValidateFabricParams(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		fabricGBs, oversub float64
		want               string // "" means valid
	}{
		{0, 0, ""},
		{100, 1, ""},
		{25, 8, ""},
		{nan, 1, "fabric bandwidth NaN GB/s is not finite"},
		{inf, 1, "fabric bandwidth +Inf GB/s is not finite"},
		{-inf, 1, "fabric bandwidth -Inf GB/s is not finite"},
		{-1, 1, "fabric bandwidth -1 GB/s must be non-negative"},
		{100, nan, "oversubscription NaN is not finite"},
		{100, inf, "oversubscription +Inf is not finite"},
		{100, -inf, "oversubscription -Inf is not finite"},
		{100, 0.5, "oversubscription 0.5 must be >= 1"},
	} {
		tp := Uniform(2, 2)
		tp.FabricGBs, tp.Oversub = c.fabricGBs, c.oversub
		err := tp.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("FabricGBs %g, Oversub %g: %v", c.fabricGBs, c.oversub, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("FabricGBs %g, Oversub %g: error %v, want %q", c.fabricGBs, c.oversub, err, c.want)
		}
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
	if s := Uniform(1, 4).String(); !strings.Contains(s, "1×4") {
		t.Fatalf("Uniform(1,4).String() = %q", s)
	}
	irr, err := FromNodeOf([]int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := irr.String(); !strings.Contains(s, "3 gpus on 2 nodes") {
		t.Fatalf("irregular String() = %q", s)
	}
	var nilTopo *Topology
	if s := nilTopo.String(); s != "no topology" {
		t.Fatalf("nil String() = %q", s)
	}
	if s := (&Topology{}).String(); s != "empty topology" {
		t.Fatalf("zero-value String() = %q", s)
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

// FuzzTopology drives the package's entry points with random GPU →
// node assignments (bytes from 0xF0 up give node -1), random GPU
// subsets (ids from -1 to NumGPUs, repeats included) and random fabric
// parameters, NaN and ±Inf included. FromNodeOf, Validate and Subset
// must return an error exactly when their input is invalid, and never
// panic; String never panics. A subset keeps the fabric parameters bit
// for bit, renumbers nodes by first appearance, and validates when its
// topology does.
// `go test -run '^$' -fuzz FuzzTopology -fuzztime 60s ./internal/topo`.
func FuzzTopology(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add([]byte{0, 0, 1, 1}, []byte{3, 0, 2}, 100.0, 4.0)
	f.Add([]byte{0, 1, 0, 2}, []byte{1, 4, 2}, nan, 1.0)
	f.Add([]byte{0, 2}, []byte{0}, 0.0, inf)
	f.Add([]byte{}, []byte{}, -inf, 0.5)
	f.Add([]byte{1, 0, 0}, []byte{2, 2}, -1.0, nan)
	f.Add([]byte{0, 0xF0, 1}, []byte{1}, inf, -inf)
	f.Add([]byte{3, 2, 1, 0, 2}, []byte{4, 3, 1, 0}, 25.0, 0.0)
	f.Add([]byte{0}, []byte{0, 1}, 50.0, 2.0)
	f.Fuzz(func(t *testing.T, nodes, subset []byte, fabricGBs, oversub float64) {
		nodeOf := make([]int, len(nodes))
		maxNode := -1
		for g, b := range nodes {
			nodeOf[g] = int(b % 8)
			if b >= 0xF0 {
				nodeOf[g] = -1
			}
			maxNode = max(maxNode, nodeOf[g])
		}
		wantOK := len(nodeOf) > 0 && !slices.Contains(nodeOf, -1)
		for n := 0; n <= maxNode && wantOK; n++ {
			wantOK = slices.Contains(nodeOf, n)
		}
		tp, err := FromNodeOf(nodeOf)
		if (err == nil) != wantOK {
			t.Fatalf("FromNodeOf(%v): error %v, want valid=%v", nodeOf, err, wantOK)
		}
		if err != nil {
			return
		}
		tp.FabricGBs, tp.Oversub = fabricGBs, oversub
		_ = tp.String()
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		valid := finite(fabricGBs) && fabricGBs >= 0 && finite(oversub) && (oversub == 0 || oversub >= 1)
		verr := tp.Validate()
		if (verr == nil) != valid {
			t.Fatalf("Validate with FabricGBs %g, Oversub %g: %v, want valid=%v", fabricGBs, oversub, verr, valid)
		}

		gpus := make([]int, len(subset))
		seen := map[int]bool{}
		subsetOK := len(gpus) > 0
		for i, b := range subset {
			gpus[i] = int(b)%(tp.NumGPUs()+2) - 1
			subsetOK = subsetOK && gpus[i] >= 0 && gpus[i] < tp.NumGPUs() && !seen[gpus[i]]
			seen[gpus[i]] = true
		}
		sub, err := tp.Subset(gpus)
		if (err == nil) != subsetOK {
			t.Fatalf("Subset(%v) of %d GPUs: error %v, want valid=%v", gpus, tp.NumGPUs(), err, subsetOK)
		}
		if err != nil {
			return
		}
		_ = sub.String()
		if math.Float64bits(sub.FabricGBs) != math.Float64bits(fabricGBs) || math.Float64bits(sub.Oversub) != math.Float64bits(oversub) {
			t.Fatalf("Subset fabric %g/%g, want %g/%g", sub.FabricGBs, sub.Oversub, fabricGBs, oversub)
		}
		if err := sub.Validate(); (err == nil) != (verr == nil) {
			t.Fatalf("Subset validates %v, topology %v", err, verr)
		}
		renum := map[int]int{}
		for i, g := range gpus {
			n, ok := renum[tp.NodeOf(g)]
			if !ok {
				n = len(renum)
				renum[tp.NodeOf(g)] = n
			}
			if sub.NodeOf(i) != n {
				t.Fatalf("Subset(%v) puts GPU %d on node %d, want %d by first appearance", gpus, i, sub.NodeOf(i), n)
			}
		}
		if sub.NumGPUs() != len(gpus) || sub.NumNodes() != len(renum) {
			t.Fatalf("Subset(%v): %d GPUs on %d nodes, want %d on %d", gpus, sub.NumGPUs(), sub.NumNodes(), len(gpus), len(renum))
		}
	})
}
