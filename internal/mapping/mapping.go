// Package mapping implements the inter-GPU preprocessing-graph mapping
// strategies of the RAP paper: batch-parallel ("mapping by batch"),
// data-locality ("mapping by data dependency"), and RAP's joint
// heuristic search (§7.2) that starts from data locality and rebalances
// graphs between GPUs when the balance gain outweighs the added input
// communication.
package mapping

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"rap/internal/dlrm"
	"rap/internal/memo"
	"rap/internal/preproc"
)

// bytesPerID is the wire size of one preprocessed sparse id.
const bytesPerID = 8 //rap:unit B

// Assign is one graph scheduled on one GPU with the sample share it
// preprocesses there.
type Assign struct {
	Graph *preproc.Graph
	// Shape is the data volume this GPU processes for the graph.
	Shape preproc.Shape
}

// Result is a complete mapping of a preprocessing plan onto the GPUs.
type Result struct {
	Strategy string
	// PerGPU[g] lists the graph assignments of GPU g.
	PerGPU [][]Assign
	// CommBytes[g] is the per-batch input communication GPU g must
	// perform because some of its outputs are consumed elsewhere.
	CommBytes []float64
	// Moves counts accepted rebalancing moves (RAP search only).
	Moves int
	// CostEvals counts cost-model evaluations the RAP search actually
	// ran; CostCacheHits counts evaluations answered from the
	// assignment-shape memo instead (RAP search only). The cost model
	// runs a full co-run schedule per call, so hits are the search's
	// main savings.
	CostEvals     int
	CostCacheHits int
}

// CostFn scores one GPU's preprocessing assignment: the estimated
// per-iteration exposed latency of running the given graphs plus the
// given input communication on GPU g. RAPSearch minimizes the maximum
// over GPUs.
type CostFn func(gpu int, items []Assign, commBytes float64) float64

// Config parameterizes the mapping strategies.
type Config struct {
	Plan      *preproc.Plan
	Placement dlrm.Placement
	// PerGPUBatch is the per-GPU training batch size; the global batch
	// is PerGPUBatch × NumGPUs.
	PerGPUBatch int
	// LinkGBs converts communication bytes to µs in the default cost.
	LinkGBs float64 //rap:unit GB/s
	// CapacityPerGPU is each GPU's per-iteration overlapping capacity
	// (µs), used by the default cost function.
	CapacityPerGPU []float64 //rap:unit us
	// Cost overrides the default work-vs-capacity cost model.
	Cost CostFn
}

// maxMoves bounds the RAP search.
const maxMoves = 200

func (c Config) validate() error {
	if c.Plan == nil {
		return fmt.Errorf("mapping: nil plan")
	}
	if err := c.Plan.Validate(); err != nil {
		return err
	}
	if err := c.Placement.Validate(); err != nil {
		return err
	}
	if c.PerGPUBatch <= 0 {
		return fmt.Errorf("mapping: PerGPUBatch must be positive")
	}
	// A NaN would slip past linkGBs' default and turn every default-cost
	// communication term NaN.
	if math.IsNaN(c.LinkGBs) || math.IsInf(c.LinkGBs, 0) {
		return fmt.Errorf("mapping: LinkGBs is %v, want a finite value (<= 0 for the default)", c.LinkGBs)
	}
	for g, v := range c.CapacityPerGPU {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("mapping: CapacityPerGPU[%d] is %v, want a finite value >= 0", g, v)
		}
	}
	for _, g := range c.Plan.Graphs {
		for _, o := range g.Outputs {
			if o.Table >= len(c.Placement.TableGPU) {
				return fmt.Errorf("mapping: graph %s feeds table %d, but the placement covers only %d tables", g.Name, o.Table, len(c.Placement.TableGPU))
			}
		}
	}
	return nil
}

// linkGBs returns the configured link bandwidth or its default.
//
//rap:unit return GB/s
func (c Config) linkGBs() float64 {
	if c.LinkGBs <= 0 {
		return 300
	}
	return c.LinkGBs
}

func (c Config) globalBatch() int { return c.PerGPUBatch * c.Placement.NumGPUs }

func (c Config) costFn() CostFn {
	if c.Cost != nil {
		return c.Cost
	}
	return func(gpu int, items []Assign, commBytes float64) float64 {
		work := 0.0
		for _, a := range items {
			work += a.Graph.TotalWork(a.Shape)
		}
		capacity := 0.0
		if gpu < len(c.CapacityPerGPU) {
			capacity = c.CapacityPerGPU[gpu]
		}
		exposed := work - capacity
		if exposed < 0 {
			exposed = 0
		}
		return exposed + commBytes/(c.linkGBs()*1e3)
	}
}

// sparseOutBytes estimates the wire size of one graph output column for
// the given sample count.
//
//rap:unit return B
func sparseOutBytes(samples int, avgListLen float64) float64 {
	if avgListLen <= 0 {
		avgListLen = 1
	}
	return float64(samples) * avgListLen * bytesPerID
}

// DataParallel maps by batch: every GPU preprocesses its own 1/N sample
// slice of every graph, then ships each table's ids to the table's
// owner. Minimal imbalance, maximal input communication.
//
//rap:deterministic
func DataParallel(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Placement.NumGPUs
	res := &Result{Strategy: "data-parallel", PerGPU: make([][]Assign, n), CommBytes: make([]float64, n)}
	shape := preproc.Shape{Samples: cfg.PerGPUBatch, AvgListLen: cfg.Plan.AvgListLen}
	for g := 0; g < n; g++ {
		for _, gr := range cfg.Plan.Graphs {
			res.PerGPU[g] = append(res.PerGPU[g], Assign{Graph: gr, Shape: shape})
			// Each sparse output row is needed by the owning table's
			// GPU; on average (n-1)/n of this GPU's slice is remote.
			for range gr.Outputs {
				res.CommBytes[g] += sparseOutBytes(cfg.PerGPUBatch, cfg.Plan.AvgListLen) * float64(n-1) / float64(n)
			}
		}
	}
	return res, nil
}

// homeGPU returns the GPU owning the majority of a graph's output
// tables (ties to the lowest GPU); -1 for pure-dense graphs.
func homeGPU(g *preproc.Graph, pl dlrm.Placement) int {
	if len(g.Outputs) == 0 {
		return -1
	}
	votes := map[int]int{}
	for _, o := range g.Outputs {
		votes[pl.TableGPU[o.Table]]++
	}
	gpus := make([]int, 0, len(votes))
	for gpu := range votes {
		gpus = append(gpus, gpu)
	}
	sort.Ints(gpus)
	best, bestVotes := -1, -1
	for _, gpu := range gpus {
		if v := votes[gpu]; v > bestVotes {
			best, bestVotes = gpu, v
		}
	}
	return best
}

// commBytesFor returns the input communication a graph incurs when
// executed on GPU `on`: every output consumed by a table on another GPU
// must be shipped there, for the full global batch.
func commBytesFor(g *preproc.Graph, on int, cfg Config) float64 {
	total := 0.0
	for _, o := range g.Outputs {
		if cfg.Placement.TableGPU[o.Table] != on {
			total += sparseOutBytes(cfg.globalBatch(), cfg.Plan.AvgListLen)
		}
	}
	return total
}

// assignLocality builds the data-locality assignment: sparse graphs run
// whole-batch on their home GPU; dense graphs are duplicated on every
// GPU, each processing only its local batch (replicated MLPs consume
// dense features locally).
func assignLocality(cfg Config) ([][]Assign, []float64) {
	n := cfg.Placement.NumGPUs
	perGPU := make([][]Assign, n)
	comm := make([]float64, n)
	globalShape := preproc.Shape{Samples: cfg.globalBatch(), AvgListLen: cfg.Plan.AvgListLen}
	localShape := preproc.Shape{Samples: cfg.PerGPUBatch, AvgListLen: cfg.Plan.AvgListLen}
	for _, gr := range cfg.Plan.Graphs {
		home := homeGPU(gr, cfg.Placement)
		if home < 0 {
			for g := 0; g < n; g++ {
				perGPU[g] = append(perGPU[g], Assign{Graph: gr, Shape: localShape})
			}
			continue
		}
		perGPU[home] = append(perGPU[home], Assign{Graph: gr, Shape: globalShape})
		comm[home] += commBytesFor(gr, home, cfg)
	}
	return perGPU, comm
}

// DataLocality maps by data dependency: zero (or minimal) input
// communication, but workload balance follows table placement.
//
//rap:deterministic
func DataLocality(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	perGPU, comm := assignLocality(cfg)
	return &Result{Strategy: "data-locality", PerGPU: perGPU, CommBytes: comm}, nil
}

// minSplitSamples is the smallest sample slice a graph assignment may be
// split into during rebalancing.
const minSplitSamples = 1024

// itemComm returns the input communication one assignment incurs on GPU
// gpu, scaled by its sample share of the global batch.
func itemComm(a Assign, gpu int, cfg Config) float64 {
	if len(a.Graph.Outputs) == 0 {
		return 0
	}
	return commBytesFor(a.Graph, gpu, cfg) * float64(a.Shape.Samples) / float64(cfg.globalBatch())
}

func commOf(items []Assign, gpu int, cfg Config) float64 {
	total := 0.0
	for _, a := range items {
		total += itemComm(a, gpu, cfg)
	}
	return total
}

// costMemo memoizes CostFn evaluations within one RAPSearch run, keyed
// by the candidate assignment's exact shape: the GPU, the (graph, sample
// share) list, and the communication volume. CostFn is required to be a
// pure function of exactly those inputs (the default work-vs-capacity
// cost and the framework's schedule cost both are), so a hit returns
// what the evaluation would have computed — unchanged GPUs are never
// re-scored across move iterations. Item order is part of the key; the
// search builds candidate lists deterministically, so reordered-but-
// equal lists only cost an extra miss, never a wrong hit. The key bytes
// are built in buf, reused across calls, so a costMemo serves one
// goroutine.
type costMemo struct {
	raw     CostFn
	graphID map[*preproc.Graph]int
	cache   *memo.Cache[string, float64]
	buf     []byte
}

func newCostMemo(raw CostFn, plan *preproc.Plan) *costMemo {
	ids := make(map[*preproc.Graph]int, len(plan.Graphs))
	for i, g := range plan.Graphs {
		ids[g] = i
	}
	return &costMemo{raw: raw, graphID: ids, cache: memo.New[string, float64]()}
}

// key encodes the assignment shape as fixed-width 8-byte words: the GPU
// and the comm bytes, then each item's graph id, samples and list
// length, floats as math.Float64bits. Fixed widths make the encoding
// unambiguous, so two keys are equal only when every input is
// bit-identical. Every item RAPSearch scores holds one of the plan's
// graphs, so each has an id.
func (m *costMemo) key(gpu int, items []Assign, comm float64) string {
	le := binary.LittleEndian
	b := le.AppendUint64(m.buf[:0], uint64(gpu))
	b = le.AppendUint64(b, math.Float64bits(comm))
	for _, a := range items {
		b = le.AppendUint64(b, uint64(m.graphID[a.Graph]))
		b = le.AppendUint64(b, uint64(a.Shape.Samples))
		b = le.AppendUint64(b, math.Float64bits(a.Shape.AvgListLen))
	}
	m.buf = b
	return string(b)
}

func (m *costMemo) cost(gpu int, items []Assign, comm float64) float64 {
	// CostFn cannot fail, so Get's error is always nil.
	v, _ := m.cache.Get(m.key(gpu, items, comm), func() (float64, error) { return m.raw(gpu, items, comm), nil })
	return v
}

// RAPSearch is the §7.2 joint heuristic: start from data locality,
// evaluate every GPU with the cost model (which runs the intra-GPU
// co-run schedule), and repeatedly move work from the most expensive GPU
// to the cheapest one when doing so lowers the bottleneck cost —
// weighing balance gain against the communication the move introduces.
// A move transfers either a whole sparse graph or, when whole graphs are
// too coarse, half of an assignment's sample range. Iterates to a
// fixpoint.
//
//rap:deterministic
func RAPSearch(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Placement.NumGPUs
	perGPU, _ := assignLocality(cfg)
	memoized := newCostMemo(cfg.costFn(), cfg.Plan)
	// Every comparison with NaN is false, so a NaN destination would
	// pass both acceptance tests and argmax/argmin would skip a NaN GPU;
	// an infinite cost hides every other GPU's. The first non-finite
	// cost ends the search with an error.
	var bad error
	cost := func(g int, items []Assign, comm float64) float64 {
		c := memoized.cost(g, items, comm)
		if bad == nil && (math.IsNaN(c) || math.IsInf(c, 0)) {
			bad = fmt.Errorf("mapping: GPU %d costs %v; RAPSearch needs finite costs", g, c)
		}
		return c
	}

	comm := make([]float64, n)
	costs := make([]float64, n)
	recompute := func(g int) {
		comm[g] = commOf(perGPU[g], g, cfg)
		costs[g] = cost(g, perGPU[g], comm[g])
	}
	for g := 0; g < n; g++ {
		recompute(g)
	}
	if bad != nil {
		return nil, bad
	}

	moves := 0
	for moves < maxMoves {
		src, dst := argmax(costs), argmin(costs)
		if src == dst || costs[src] <= costs[dst] {
			break
		}
		// Candidate assignments on src: movable sparse graphs, heaviest
		// first.
		type cand struct {
			idx  int
			work float64
		}
		var cands []cand
		for i, a := range perGPU[src] {
			if len(a.Graph.Outputs) == 0 {
				continue // dense graphs are duplicated, not movable
			}
			cands = append(cands, cand{i, a.Graph.TotalWork(a.Shape)})
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].work > cands[b].work })
		if len(cands) > 8 {
			cands = cands[:8]
		}

		improved := false
		oldMax := costs[src]
		// try scores the destination first: most candidates fail on it
		// alone, and the source, the busiest GPU, is the dearer one to
		// score. A destination at or above the threshold fails the max
		// test whatever the source scores, so skipping the source never
		// changes a decision.
		try := func(newSrcItems, newDstItems []Assign) bool {
			newDst := cost(dst, newDstItems, commOf(newDstItems, dst, cfg))
			if bad != nil || newDst >= oldMax-1e-9 {
				return false
			}
			newSrc := cost(src, newSrcItems, commOf(newSrcItems, src, cfg))
			if bad != nil || maxOf(newSrc, newDst) >= oldMax-1e-9 {
				return false
			}
			perGPU[src] = newSrcItems
			perGPU[dst] = newDstItems
			recompute(src)
			recompute(dst)
			moves++
			return true
		}
		for _, c := range cands {
			a := perGPU[src][c.idx]
			rest := append(append([]Assign(nil), perGPU[src][:c.idx]...), perGPU[src][c.idx+1:]...)
			// Whole-graph move.
			if try(rest, append(append([]Assign(nil), perGPU[dst]...), a)) {
				improved = true
				break
			}
			// Half-split move: keep half the samples at home, ship half.
			if a.Shape.Samples >= 2*minSplitSamples {
				half := a.Shape
				half.Samples = a.Shape.Samples / 2
				keep := Assign{Graph: a.Graph, Shape: half}
				other := half
				other.Samples = a.Shape.Samples - half.Samples
				give := Assign{Graph: a.Graph, Shape: other}
				if try(append(append([]Assign(nil), rest...), keep),
					append(append([]Assign(nil), perGPU[dst]...), give)) {
					improved = true
					break
				}
			}
			if bad != nil {
				return nil, bad
			}
		}
		if !improved {
			break
		}
	}
	hits, misses := memoized.cache.Stats()
	return &Result{Strategy: "rap", PerGPU: perGPU, CommBytes: comm, Moves: moves,
		CostEvals: misses, CostCacheHits: hits}, nil
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

func maxOf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TotalWork returns the summed preprocessing work (µs) of one GPU's
// assignment.
//
//rap:unit return us
func TotalWork(items []Assign) float64 {
	t := 0.0
	for _, a := range items {
		t += a.Graph.TotalWork(a.Shape)
	}
	return t
}

// Imbalance returns max/mean of per-GPU work, ≥ 1.
func (r *Result) Imbalance() float64 {
	if len(r.PerGPU) == 0 {
		return 1
	}
	var max, sum float64
	for _, items := range r.PerGPU {
		w := TotalWork(items)
		sum += w
		if w > max {
			max = w
		}
	}
	mean := sum / float64(len(r.PerGPU))
	if mean <= 0 {
		return 1
	}
	return max / mean
}

// TotalComm sums the per-GPU communication bytes.
func (r *Result) TotalComm() float64 {
	t := 0.0
	for _, b := range r.CommBytes {
		t += b
	}
	return t
}
