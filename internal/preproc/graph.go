package preproc

import (
	"fmt"
	"sync/atomic"

	"rap/internal/tensor"
)

// GraphOutput declares that a graph's column feeds an embedding table.
type GraphOutput struct {
	// Table is the embedding-table index consuming the column.
	Table int
	// Col is the final column name holding the table's input ids.
	Col string
}

// Graph is one preprocessing DAG: the unit the mapping stage (§7.2)
// places onto a GPU. A graph covers one input feature — or several, when
// feature generation (NGram) ties features together — and knows which
// embedding tables consume its outputs.
type Graph struct {
	ID   int
	Name string
	Ops  []Op
	// Outputs lists the sparse outputs and their consuming tables.
	Outputs []GraphOutput
	// DenseOutput, when non-empty, names the final dense column; dense
	// outputs are consumed by every GPU (replicated MLPs), so graphs
	// with a DenseOutput are duplicated across GPUs by the mapper.
	DenseOutput string

	// deps and valid cache Deps and a successful Validate. Both are
	// atomic, so concurrent first calls on a shared graph (BuildPlan's
	// per-GPU lowerings) are race-free: each computes the same value.
	deps  atomic.Pointer[[][]int]
	valid atomic.Bool
}

// InvalidateDeps clears the cached adjacency and validation after a
// structural edit (appending ops to an existing graph): the next Deps
// rebuilds the adjacency and the next Validate checks the graph again.
func (g *Graph) InvalidateDeps() {
	g.deps.Store(nil)
	g.valid.Store(false)
}

// Deps returns the adjacency list: Deps()[i] holds the op indices that
// op i depends on (its producers). Dependencies are derived from column
// names: op j depends on op i iff j reads i's output.
func (g *Graph) Deps() [][]int {
	if d := g.deps.Load(); d != nil {
		return *d
	}
	producer := make(map[string]int, len(g.Ops))
	for i, op := range g.Ops {
		producer[op.Output()] = i
	}
	deps := make([][]int, len(g.Ops))
	for i, op := range g.Ops {
		for _, in := range op.Inputs() {
			if p, ok := producer[in]; ok && p != i {
				deps[i] = append(deps[i], p)
			}
		}
	}
	g.deps.Store(&deps)
	return deps
}

// TopoOrder returns op indices in dependency order, or an error if the
// graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	deps := g.Deps()
	indeg := make([]int, len(g.Ops))
	children := make([][]int, len(g.Ops))
	for i, ds := range deps {
		indeg[i] = len(ds)
		for _, d := range ds {
			children[d] = append(children[d], i)
		}
	}
	var queue, order []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, c := range children[n] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != len(g.Ops) {
		return nil, fmt.Errorf("preproc: graph %q has a dependency cycle", g.Name)
	}
	return order, nil
}

// Levels returns each op's ASAP level (longest dependency chain length
// before it). Ops at the same level are data-independent across the
// level, which is what horizontal fusion exploits.
func (g *Graph) Levels() ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	deps := g.Deps()
	levels := make([]int, len(g.Ops))
	for _, i := range order {
		for _, d := range deps[i] {
			if levels[d]+1 > levels[i] {
				levels[i] = levels[d] + 1
			}
		}
	}
	return levels, nil
}

// Validate checks op-ID and output uniqueness and acyclicity. A graph
// that passed is not checked again until InvalidateDeps, the same
// contract as Deps' cache.
func (g *Graph) Validate() error {
	if g.valid.Load() {
		return nil
	}
	ids := make(map[string]bool, len(g.Ops))
	outs := make(map[string]bool, len(g.Ops))
	for _, op := range g.Ops {
		if ids[op.ID()] {
			return fmt.Errorf("preproc: graph %q has duplicate op id %q", g.Name, op.ID())
		}
		ids[op.ID()] = true
		if outs[op.Output()] {
			return fmt.Errorf("preproc: graph %q has two producers of %q", g.Name, op.Output())
		}
		outs[op.Output()] = true
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	g.valid.Store(true)
	return nil
}

// Apply executes the graph's operators on b in dependency order.
func (g *Graph) Apply(b *tensor.Batch) error {
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	for _, i := range order {
		if err := g.Ops[i].Apply(b); err != nil {
			return err
		}
	}
	return nil
}

// Specs returns the kernel spec of every op for the given shape, indexed
// like g.Ops. Kept as a fixture for fusion's tests.
func (g *Graph) Specs(shape Shape) []KernelSpec {
	out := make([]KernelSpec, len(g.Ops))
	for i, op := range g.Ops {
		out[i] = op.Spec(shape)
	}
	return out
}

// TotalWork returns the summed solo latency of all ops (µs), the
// sequential-execution cost of the graph.
//
//rap:unit return us
func (g *Graph) TotalWork(shape Shape) float64 {
	total := 0.0
	for _, op := range g.Ops {
		total += op.Spec(shape).SoloLatency()
	}
	return total
}

// Plan is a complete preprocessing workload: every graph needed to turn
// one raw batch into model input (the paper's "input preprocessing
// plan", Table 3).
type Plan struct {
	Name string
	// NumDense / NumSparse are the raw feature counts (Table 3 columns).
	NumDense  int
	NumSparse int
	// NumTables is the embedding-table count after feature generation
	// (original sparse features plus NGram-generated ones).
	NumTables int
	// AvgListLen is the expected multi-hot length, for cost estimation.
	AvgListLen float64
	Graphs     []*Graph
}

// NumOps returns the total operator count across all graphs (the Table 3
// "Total #Op" column).
func (p *Plan) NumOps() int {
	n := 0
	for _, g := range p.Graphs {
		n += len(g.Ops)
	}
	return n
}

// Shape returns the cost-model shape for a batch of the given size.
func (p *Plan) Shape(samples int) Shape {
	return Shape{Samples: samples, AvgListLen: p.AvgListLen}
}

// Validate validates every graph, cross-graph output uniqueness and the
// table-consumer wiring.
func (p *Plan) Validate() error {
	seenTables := make(map[int]string)
	seenCols := make(map[string]string)
	for _, g := range p.Graphs {
		if err := g.Validate(); err != nil {
			return err
		}
		for _, op := range g.Ops {
			if prev, dup := seenCols[op.Output()]; dup {
				return fmt.Errorf("preproc: plan %q: column %q produced by both %q and %q",
					p.Name, op.Output(), prev, g.Name)
			}
			seenCols[op.Output()] = g.Name
		}
		for _, out := range g.Outputs {
			if out.Table < 0 || out.Table >= p.NumTables {
				return fmt.Errorf("preproc: plan %q graph %q feeds table %d out of range [0,%d)",
					p.Name, g.Name, out.Table, p.NumTables)
			}
			if prev, dup := seenTables[out.Table]; dup {
				return fmt.Errorf("preproc: plan %q: table %d fed by both %q and %q",
					p.Name, out.Table, prev, g.Name)
			}
			seenTables[out.Table] = g.Name
		}
	}
	return nil
}

// Apply executes every graph on b, in plan order, and stops at the
// first graph that fails.
func (p *Plan) Apply(b *tensor.Batch) error {
	for _, g := range p.Graphs {
		if err := g.Apply(b); err != nil {
			return graphErr(g, err)
		}
	}
	return nil
}

// graphErr names the failing graph in a plan run's error.
func graphErr(g *Graph, err error) error {
	return fmt.Errorf("preproc: graph %q: %w", g.Name, err)
}

// TableCols maps each embedding table to the column feeding it.
func (p *Plan) TableCols() map[int]string {
	out := make(map[int]string)
	for _, g := range p.Graphs {
		for _, o := range g.Outputs {
			out[o.Table] = o.Col
		}
	}
	return out
}

// DenseCols lists the final dense column names in graph order.
func (p *Plan) DenseCols() []string {
	var out []string
	for _, g := range p.Graphs {
		if g.DenseOutput != "" {
			out = append(out, g.DenseOutput)
		}
	}
	return out
}

// SaturatedWork sums the occupancy-independent work volume (µs at full
// GPU throughput) of every op for a batch of the given size — the
// device-neutral cost basis for the CPU baseline.
//
//rap:unit return us
func (p *Plan) SaturatedWork(samples int) float64 {
	total := 0.0
	shape := p.Shape(samples)
	for _, g := range p.Graphs {
		for _, op := range g.Ops {
			total += op.Spec(shape).SaturatedWork()
		}
	}
	return total
}
