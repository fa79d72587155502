package rap

import (
	"fmt"

	"rap/internal/data"
	"rap/internal/dlrm"
	"rap/internal/nn"
	"rap/internal/preproc"
	"rap/internal/tensor"
)

// FunctionalResult reports a real (data-level) training run.
type FunctionalResult struct {
	Losses []float32
	// InSync reports the data-parallel replica invariant after training.
	InSync bool
}

// RunFunctional executes real end-to-end online training: generate raw
// batches, run the full preprocessing plan (actual transforms), assemble
// model inputs from the plan's output columns, and step the
// hybrid-parallel trainer. It validates that the searched system is not
// just fast but *correct* — the preprocessing outputs actually feed a
// model whose loss decreases.
//
// globalBatch must be divisible by workers. The embedding tables are
// capped (dlrm.MaxFunctionalRows), so this is a semantics check, not a
// capacity test.
func RunFunctional(w *Workload, workers, globalBatch, iterations int, seed int64) (*FunctionalResult, error) {
	return RunFunctionalLR(w, workers, globalBatch, iterations, seed, 0.05)
}

// RunFunctionalLR is RunFunctional with an explicit learning rate.
func RunFunctionalLR(w *Workload, workers, globalBatch, iterations int, seed int64, lr float32) (*FunctionalResult, error) {
	if globalBatch <= 0 {
		return nil, fmt.Errorf("rap: invalid globalBatch=%d", globalBatch)
	}
	// Reject what RunFunctionalFrom would only find after building the
	// trainer's replicas and the first batch.
	if workers <= 0 {
		return nil, fmt.Errorf("rap: invalid workers=%d", workers)
	}
	if globalBatch%workers != 0 {
		return nil, fmt.Errorf("rap: batch of %d samples not divisible by %d workers", globalBatch, workers)
	}
	gen := data.NewGenerator(w.Gen)
	src := BatchSourceFunc(func() (*tensor.Batch, error) { return gen.NextBatch(globalBatch), nil })
	return RunFunctionalFrom(w, workers, src, iterations, seed, lr)
}

// BatchSource supplies raw batches to the functional trainer — a
// generator, an on-disk data.Dataset iterator, or anything else
// producing tensor batches with labels.
type BatchSource interface {
	Next() (*tensor.Batch, error)
}

// BatchSourceFunc adapts a function to BatchSource.
type BatchSourceFunc func() (*tensor.Batch, error)

// Next implements BatchSource.
func (f BatchSourceFunc) Next() (*tensor.Batch, error) { return f() }

// RunFunctionalFrom runs real end-to-end online training consuming raw
// batches from src (e.g. a data-storage-node stream, Figure 2): every
// batch is preprocessed by the full plan (using the parallel CPU
// executor) and stepped through the hybrid-parallel trainer.
func RunFunctionalFrom(w *Workload, workers int, src BatchSource, iterations int, seed int64, lr float32) (*FunctionalResult, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		return nil, fmt.Errorf("rap: invalid workers=%d", workers)
	}
	pl := dlrm.PlaceTables(w.Model.TableSizes, workers)
	trainer, err := dlrm.NewHybridTrainer(w.Model, pl, seed)
	if err != nil {
		return nil, err
	}
	tableCols := w.Plan.TableCols()
	denseCols := w.Plan.DenseCols()

	res := &FunctionalResult{}
	for it := 0; it < iterations; it++ {
		raw, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("rap: fetching batch %d: %w", it, err)
		}
		if raw.Samples%workers != 0 {
			return nil, fmt.Errorf("rap: batch of %d samples not divisible by %d workers", raw.Samples, workers)
		}
		if err := preproc.ParallelApply(w.Plan, raw, 0); err != nil {
			return nil, fmt.Errorf("rap: preprocessing batch %d: %w", it, err)
		}
		dense, sparse, err := AssembleInputs(raw, denseCols, tableCols, w.Model.NumTables())
		if err != nil {
			return nil, err
		}
		loss, err := trainer.Step(dense, sparse, raw.Labels, lr)
		if err != nil {
			return nil, fmt.Errorf("rap: training step %d: %w", it, err)
		}
		res.Losses = append(res.Losses, loss)
	}
	res.InSync = trainer.ReplicasInSync()
	return res, nil
}

// AssembleInputs gathers the preprocessed batch's columns into model
// inputs: a dense matrix (one column per dense output) and one sparse
// column per embedding table.
func AssembleInputs(b *tensor.Batch, denseCols []string, tableCols map[int]string, numTables int) (*nn.Matrix, []*tensor.Sparse, error) {
	dense := nn.NewMatrix(b.Samples, len(denseCols))
	for j, name := range denseCols {
		col := b.DenseByName(name)
		if col == nil {
			return nil, nil, fmt.Errorf("rap: preprocessed batch is missing dense column %q", name)
		}
		for i := 0; i < b.Samples; i++ {
			dense.Set(i, j, col.Values[i])
		}
	}
	sparse := make([]*tensor.Sparse, numTables)
	for t := 0; t < numTables; t++ {
		name, ok := tableCols[t]
		if !ok {
			return nil, nil, fmt.Errorf("rap: no plan output feeds table %d", t)
		}
		col := b.SparseByName(name)
		if col == nil {
			return nil, nil, fmt.Errorf("rap: preprocessed batch is missing sparse column %q", name)
		}
		sparse[t] = col
	}
	return dense, sparse, nil
}

// VerifyPlanSemantics checks, on a small real batch, that a workload's
// preprocessing plan produces exactly the columns the model consumes
// with ids inside each table's hash range.
func VerifyPlanSemantics(w *Workload, samples int, seed int64) error {
	gen := data.NewGenerator(w.Gen)
	b := gen.NextBatch(samples)
	if err := w.Plan.Apply(b); err != nil {
		return err
	}
	if err := b.Validate(); err != nil {
		return err
	}
	_, sparse, err := AssembleInputs(b, w.Plan.DenseCols(), w.Plan.TableCols(), w.Model.NumTables())
	if err != nil {
		return err
	}
	for t, col := range sparse {
		limit := w.Model.TableSizes[t]
		for _, id := range col.Values {
			if id < 0 || id >= limit {
				return fmt.Errorf("rap: table %d receives id %d outside [0,%d)", t, id, limit)
			}
		}
	}
	for _, name := range w.Plan.DenseCols() {
		if b.DenseByName(name).HasNaN() {
			return fmt.Errorf("rap: dense output %q still contains NaN", name)
		}
	}
	return nil
}
