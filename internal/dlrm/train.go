package dlrm

import (
	"fmt"
	"math/rand"

	"rap/internal/nn"
	"rap/internal/tensor"
)

// HybridTrainer executes real hybrid-parallel DLRM training (§2.2) on
// the CPU: the MLPs are replicated on every worker (data parallelism,
// kept in sync by an explicit gradient all-reduce) while the embedding
// tables are partitioned across workers (model parallelism) and their
// pooled activations move through an explicit all-to-all exchange. One
// worker stands in for one GPU; the exchanges mirror the traffic the
// simulator charges for.
type HybridTrainer struct {
	Cfg Config
	Pl  Placement

	workers []*hpWorker
}

type hpWorker struct {
	bottom *nn.MLP
	top    *nn.MLP
	inter  interaction
	// tables maps global table index -> local shard.
	tables map[int]*EmbeddingTable
}

// NewHybridTrainer builds N synchronized replicas. All replicas start
// from identical weights (same seed); table t is created only on its
// owner with a per-table seed, so placement does not change init.
func NewHybridTrainer(cfg Config, pl Placement, seed int64) (*HybridTrainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if len(pl.TableGPU) != cfg.NumTables() {
		return nil, fmt.Errorf("dlrm: placement covers %d tables, model has %d", len(pl.TableGPU), cfg.NumTables())
	}
	t := &HybridTrainer{Cfg: cfg, Pl: pl}
	for g := 0; g < pl.NumGPUs; g++ {
		rng := rand.New(rand.NewSource(seed))
		w := &hpWorker{
			bottom: nn.NewMLP(cfg.bottomDims(), true, rng),
			top:    nn.NewMLP(cfg.topDims(), false, rng),
			tables: map[int]*EmbeddingTable{},
		}
		t.workers = append(t.workers, w)
	}
	for tb, g := range pl.TableGPU {
		rng := rand.New(rand.NewSource(seed + 1000 + int64(tb)))
		t.workers[g].tables[tb] = NewEmbeddingTable(
			int(min64(cfg.TableSizes[tb], MaxFunctionalRows)), cfg.EmbeddingDim, rng)
	}
	return t, nil
}

// Step performs one synchronized hybrid-parallel step over a global
// batch: dense is globalBatch×NumDense, sparse holds one globalBatch
// column per table, labels has globalBatch entries. The global batch is
// split evenly across workers. Returns the mean loss.
func (t *HybridTrainer) Step(dense *nn.Matrix, sparse []*tensor.Sparse, labels []float32, lr float32) (float32, error) {
	n := len(t.workers)
	globalB := dense.Rows
	if globalB%n != 0 {
		return 0, fmt.Errorf("dlrm: global batch %d not divisible by %d workers", globalB, n)
	}
	if dense.Cols != t.Cfg.NumDense {
		return 0, fmt.Errorf("dlrm: dense input has %d features, model wants %d", dense.Cols, t.Cfg.NumDense)
	}
	if len(sparse) != t.Cfg.NumTables() {
		return 0, fmt.Errorf("dlrm: got %d sparse columns for %d tables", len(sparse), t.Cfg.NumTables())
	}
	if len(labels) != globalB {
		return 0, fmt.Errorf("dlrm: %d labels for %d samples", len(labels), globalB)
	}
	for tb, col := range sparse {
		if col.Len() != globalB {
			return 0, fmt.Errorf("dlrm: sparse column %d has %d samples, want %d", tb, col.Len(), globalB)
		}
	}
	shard := globalB / n

	// Phase 1 (model parallel): every table's owner pools the whole
	// global batch on its local shard.
	pooled := make([]*nn.Matrix, t.Cfg.NumTables())
	for tb := range sparse {
		owner := t.workers[t.Pl.TableGPU[tb]]
		out := nn.NewMatrix(globalB, t.Cfg.EmbeddingDim)
		owner.tables[tb].LookupPooled(sparse[tb], out)
		pooled[tb] = out
	}

	// Phases 2-3: all-to-all hands each worker its sample rows of every
	// table's pooled output; each worker then runs its data-parallel
	// forward/backward on its shard.
	type shardGrad struct {
		vecs []*nn.Matrix // dL/d pooled, per table, shard rows
	}
	grads := make([]shardGrad, n)
	var totalLoss float32
	for g := 0; g < n; g++ {
		w := t.workers[g]
		lo, hi := g*shard, (g+1)*shard
		denseShard := nn.NewMatrix(shard, dense.Cols)
		for i := lo; i < hi; i++ {
			copy(denseShard.Row(i-lo), dense.Row(i))
		}
		bot := w.bottom.Forward(denseShard)
		vectors := make([]*nn.Matrix, 0, len(pooled)+1)
		vectors = append(vectors, bot)
		for tb := range pooled {
			v := nn.NewMatrix(shard, t.Cfg.EmbeddingDim)
			for i := lo; i < hi; i++ {
				copy(v.Row(i-lo), pooled[tb].Row(i))
			}
			vectors = append(vectors, v)
		}
		z := w.inter.Forward(vectors)
		logits := w.top.Forward(z)
		loss, dlogits := nn.BCEWithLogits(logits, labels[lo:hi])
		totalLoss += loss
		dz := w.top.Backward(dlogits)
		dvecs := w.inter.Backward(dz)
		w.bottom.Backward(dvecs[0])
		grads[g] = shardGrad{vecs: dvecs[1:]}
	}

	// Phase 4 (backward all-to-all): route pooled-activation gradients
	// back to the owning table shard.
	for tb := range sparse {
		owner := t.workers[t.Pl.TableGPU[tb]]
		for g := 0; g < n; g++ {
			lo, hi := g*shard, (g+1)*shard
			sub := sparse[tb].Slice(lo, hi)
			owner.tables[tb].AccumulateGrad(sub, grads[g].vecs[tb])
		}
	}

	// Phase 5 (all-reduce): average the replicated MLP gradients so all
	// replicas apply the identical global update.
	allReduceMLP(collect(t.workers, func(w *hpWorker) *nn.MLP { return w.bottom }))
	allReduceMLP(collect(t.workers, func(w *hpWorker) *nn.MLP { return w.top }))

	// Phase 6: apply updates.
	for _, w := range t.workers {
		w.bottom.Step(lr)
		w.top.Step(lr)
		for _, table := range w.tables {
			table.Step(lr)
		}
	}
	return totalLoss / float32(n), nil
}

func collect(ws []*hpWorker, f func(*hpWorker) *nn.MLP) []*nn.MLP {
	out := make([]*nn.MLP, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// allReduceMLP averages the accumulated gradients of structurally
// identical MLP replicas in place.
func allReduceMLP(replicas []*nn.MLP) {
	if len(replicas) < 2 {
		return
	}
	n := float32(len(replicas))
	for li := range replicas[0].Layers {
		first, ok := replicas[0].Layers[li].(*nn.Linear)
		if !ok {
			continue
		}
		dW0, dB0 := first.Gradients()
		for r := 1; r < len(replicas); r++ {
			lin := replicas[r].Layers[li].(*nn.Linear)
			dW, dB := lin.Gradients()
			for i := range dW0.Data {
				dW0.Data[i] += dW.Data[i]
			}
			for i := range dB0 {
				dB0[i] += dB[i]
			}
		}
		for i := range dW0.Data {
			dW0.Data[i] /= n
		}
		for i := range dB0 {
			dB0[i] /= n
		}
		for r := 1; r < len(replicas); r++ {
			lin := replicas[r].Layers[li].(*nn.Linear)
			dW, dB := lin.Gradients()
			copy(dW.Data, dW0.Data)
			copy(dB, dB0)
		}
	}
}

// ReplicasInSync reports whether all MLP replicas hold bit-identical
// weights (the data-parallel invariant).
func (t *HybridTrainer) ReplicasInSync() bool {
	for r := 1; r < len(t.workers); r++ {
		if !sameMLP(t.workers[0].bottom, t.workers[r].bottom) ||
			!sameMLP(t.workers[0].top, t.workers[r].top) {
			return false
		}
	}
	return true
}

func sameMLP(a, b *nn.MLP) bool {
	for li := range a.Layers {
		la, ok := a.Layers[li].(*nn.Linear)
		if !ok {
			continue
		}
		lb := b.Layers[li].(*nn.Linear)
		for i := range la.W.Data {
			if la.W.Data[i] != lb.W.Data[i] {
				return false
			}
		}
		for i := range la.B {
			if la.B[i] != lb.B[i] {
				return false
			}
		}
	}
	return true
}
