// Package gbdt implements gradient-boosted regression trees with squared
// loss — a from-scratch stand-in for the XGBoost model the paper uses as
// its preprocessing-latency predictor (§5.2).
//
// Training is classic gradient boosting: fit a regression tree to the
// residuals, shrink by the learning rate, repeat. Trees use exact greedy
// variance-reduction splits over sorted feature values.
package gbdt

import (
	"fmt"
	"sort"
)

// Config controls training.
type Config struct {
	NumTrees       int     // default 100
	MaxDepth       int     // default 5
	LearningRate   float64 // default 0.1
	MinSamplesLeaf int     // default 3
}

func (c Config) withDefaults() Config {
	if c.NumTrees <= 0 {
		c.NumTrees = 100
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 5
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 3
	}
	return c
}

type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	value     float64
	leaf      bool
}

func (n *node) predict(x []float64) float64 {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Model is a trained boosted ensemble.
type Model struct {
	base  float64
	lr    float64
	trees []*node
	dims  int
}

// NumTrees returns the ensemble size.
func (m *Model) NumTrees() int { return len(m.trees) }

// Predict returns the model output for one feature vector.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != m.dims {
		//lint:ignore panicpath checked invariant: feature-count mismatch is a programmer error
		panic(fmt.Sprintf("gbdt: predict with %d features, model trained on %d", len(x), m.dims))
	}
	out := m.base
	for _, t := range m.trees {
		out += m.lr * t.predict(x)
	}
	return out
}

// Train fits a model to (X, y).
func Train(X [][]float64, y []float64, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(X) == 0 {
		return nil, fmt.Errorf("gbdt: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("gbdt: %d rows but %d targets", len(X), len(y))
	}
	dims := len(X[0])
	if dims == 0 {
		return nil, fmt.Errorf("gbdt: zero-width features")
	}
	for i, row := range X {
		if len(row) != dims {
			return nil, fmt.Errorf("gbdt: row %d has %d features, want %d", i, len(row), dims)
		}
	}

	base := mean(y)
	m := &Model{base: base, lr: cfg.LearningRate, dims: dims}
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = base
	}
	residual := make([]float64, len(y))
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	for t := 0; t < cfg.NumTrees; t++ {
		for i := range residual {
			residual[i] = y[i] - pred[i]
		}
		tree := buildTree(X, residual, idx, cfg.MaxDepth, cfg.MinSamplesLeaf)
		m.trees = append(m.trees, tree)
		for i := range pred {
			pred[i] += cfg.LearningRate * tree.predict(X[i])
		}
	}
	return m, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// buildTree grows one regression tree on the samples in idx.
func buildTree(X [][]float64, target []float64, idx []int, depth, minLeaf int) *node {
	sum, sq := 0.0, 0.0
	for _, i := range idx {
		sum += target[i]
		sq += target[i] * target[i]
	}
	n := float64(len(idx))
	leafValue := sum / n
	if depth == 0 || len(idx) < 2*minLeaf {
		return &node{leaf: true, value: leafValue}
	}
	variance := sq - sum*sum/n
	if variance <= 1e-12 {
		return &node{leaf: true, value: leafValue}
	}

	bestGain := 0.0
	bestFeature, bestPos := -1, -1
	dims := len(X[idx[0]])
	order := make([]int, len(idx))
	bestOrder := make([]int, len(idx))
	for f := 0; f < dims; f++ {
		copy(order, idx)
		sort.SliceStable(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		leftSum := 0.0
		for pos := 0; pos < len(order)-1; pos++ {
			leftSum += target[order[pos]]
			if pos+1 < minLeaf || len(order)-pos-1 < minLeaf {
				continue
			}
			// Cannot split between equal feature values.
			//lint:ignore floateq intentional bit-equality: sorted duplicates cannot host a split point
			if X[order[pos]][f] == X[order[pos+1]][f] {
				continue
			}
			nl := float64(pos + 1)
			nr := n - nl
			rightSum := sum - leftSum
			gain := leftSum*leftSum/nl + rightSum*rightSum/nr - sum*sum/n
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeature = f
				bestPos = pos
				copy(bestOrder, order)
			}
		}
	}
	if bestFeature < 0 {
		return &node{leaf: true, value: leafValue}
	}
	threshold := (X[bestOrder[bestPos]][bestFeature] + X[bestOrder[bestPos+1]][bestFeature]) / 2
	left := append([]int(nil), bestOrder[:bestPos+1]...)
	right := append([]int(nil), bestOrder[bestPos+1:]...)
	return &node{
		feature:   bestFeature,
		threshold: threshold,
		left:      buildTree(X, target, left, depth-1, minLeaf),
		right:     buildTree(X, target, right, depth-1, minLeaf),
	}
}
