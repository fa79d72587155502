// Package dlrm models the Deep Learning Recommendation Model being
// trained: the Table 2 architectures, hybrid-parallel embedding-table
// placement, the per-stage GPU cost footprints that drive the simulator,
// and a real (CPU-executed) hybrid-parallel trainer built on internal/nn
// whose loss measurably decreases.
package dlrm

import (
	"fmt"
	"math"
	"sort"
)

// Config describes one DLRM training workload (Table 2 plus batch size).
type Config struct {
	Name string
	// NumDense is the dense-feature count after preprocessing.
	NumDense int
	// EmbeddingDim is the embedding vector width (Table 2 "Dimension").
	EmbeddingDim int
	// BottomArch are the hidden sizes of the dense ("Dense Arch") MLP; a
	// final projection to EmbeddingDim is appended automatically so the
	// bottom output can join the pairwise interaction.
	BottomArch []int
	// TopArch are the hidden sizes of the top MLP ("Top Arch"); a final
	// projection to 1 logit is appended automatically.
	TopArch []int
	// TableSizes are the embedding-table row counts (hash sizes).
	TableSizes []int64
	// BatchSize is the per-GPU batch size.
	BatchSize int
	// AvgPooling is the mean multi-hot ids per lookup.
	AvgPooling float64
}

// KaggleConfig returns the Criteo-Kaggle row of Table 2.
func KaggleConfig(tableSizes []int64, batch int) Config {
	return Config{
		Name:         "criteo-kaggle",
		NumDense:     13,
		EmbeddingDim: 128,
		BottomArch:   []int{512, 256},
		TopArch:      []int{1024, 1024, 512},
		TableSizes:   tableSizes,
		BatchSize:    batch,
		AvgPooling:   3,
	}
}

// TerabyteConfig returns the Criteo-Terabyte row of Table 2.
func TerabyteConfig(tableSizes []int64, batch int) Config {
	return Config{
		Name:         "criteo-terabyte",
		NumDense:     13,
		EmbeddingDim: 128,
		BottomArch:   []int{512, 256},
		TopArch:      []int{1024, 1024, 512, 256},
		TableSizes:   tableSizes,
		BatchSize:    batch,
		AvgPooling:   3,
	}
}

// Validate checks the config's structural invariants.
func (c Config) Validate() error {
	if c.NumDense <= 0 {
		return fmt.Errorf("dlrm: %s: NumDense must be positive", c.Name)
	}
	if c.EmbeddingDim <= 0 {
		return fmt.Errorf("dlrm: %s: EmbeddingDim must be positive", c.Name)
	}
	if len(c.BottomArch) == 0 || len(c.TopArch) == 0 {
		return fmt.Errorf("dlrm: %s: empty MLP arch", c.Name)
	}
	for i, w := range c.BottomArch {
		if w <= 0 {
			return fmt.Errorf("dlrm: %s: BottomArch layer %d has width %d", c.Name, i, w)
		}
	}
	for i, w := range c.TopArch {
		if w <= 0 {
			return fmt.Errorf("dlrm: %s: TopArch layer %d has width %d", c.Name, i, w)
		}
	}
	if math.IsNaN(c.AvgPooling) || math.IsInf(c.AvgPooling, 0) {
		return fmt.Errorf("dlrm: %s: AvgPooling %v is not finite", c.Name, c.AvgPooling)
	}
	if len(c.TableSizes) == 0 {
		return fmt.Errorf("dlrm: %s: no embedding tables", c.Name)
	}
	for i, s := range c.TableSizes {
		if s < 1 {
			return fmt.Errorf("dlrm: %s: table %d has size %d", c.Name, i, s)
		}
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("dlrm: %s: BatchSize must be positive", c.Name)
	}
	return nil
}

// NumTables returns the embedding-table count.
func (c Config) NumTables() int { return len(c.TableSizes) }

// pooling returns the defaulted AvgPooling.
func (c Config) pooling() float64 {
	if c.AvgPooling <= 0 {
		return 1
	}
	return c.AvgPooling
}

// bottomDims returns the full bottom-MLP layer widths
// [NumDense, BottomArch..., EmbeddingDim].
func (c Config) bottomDims() []int {
	dims := append([]int{c.NumDense}, c.BottomArch...)
	return append(dims, c.EmbeddingDim)
}

// InteractionFeatures returns the number of vectors entering the
// pairwise interaction: one per table plus the bottom-MLP output.
func (c Config) InteractionFeatures() int { return c.NumTables() + 1 }

// TopInputDim returns the top-MLP input width: the bottom output
// concatenated with the upper-triangle pairwise dot products.
func (c Config) TopInputDim() int {
	f := c.InteractionFeatures()
	return c.EmbeddingDim + f*(f-1)/2
}

// topDims returns the full top-MLP layer widths
// [TopInputDim, TopArch..., 1].
func (c Config) topDims() []int {
	dims := append([]int{c.TopInputDim()}, c.TopArch...)
	return append(dims, 1)
}

// MLPParams returns the total replicated (data-parallel) parameter count.
func (c Config) MLPParams() int {
	count := func(dims []int) int {
		n := 0
		for i := 0; i+1 < len(dims); i++ {
			n += dims[i]*dims[i+1] + dims[i+1]
		}
		return n
	}
	return count(c.bottomDims()) + count(c.topDims())
}

// Placement assigns each embedding table to a GPU (model parallelism).
type Placement struct {
	NumGPUs  int
	TableGPU []int
}

// PlaceTables greedily balances tables across GPUs by row count
// (largest-first bin packing), the standard TorchRec-style sharding.
func PlaceTables(tableSizes []int64, numGPUs int) Placement {
	if numGPUs < 1 {
		numGPUs = 1
	}
	type entry struct {
		idx  int
		size int64
	}
	entries := make([]entry, len(tableSizes))
	for i, s := range tableSizes {
		entries[i] = entry{i, s}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].size != entries[j].size {
			return entries[i].size > entries[j].size
		}
		return entries[i].idx < entries[j].idx
	})
	load := make([]int64, numGPUs)
	pl := Placement{NumGPUs: numGPUs, TableGPU: make([]int, len(tableSizes))}
	for _, e := range entries {
		best := 0
		for g := 1; g < numGPUs; g++ {
			if load[g] < load[best] {
				best = g
			}
		}
		pl.TableGPU[e.idx] = best
		load[best] += e.size
	}
	return pl
}

// LocalTables returns the table indices placed on GPU g, ascending.
func (p Placement) LocalTables(g int) []int {
	var out []int
	for t, gpu := range p.TableGPU {
		if gpu == g {
			out = append(out, t)
		}
	}
	return out
}

// Validate checks that every table is placed on a valid GPU.
func (p Placement) Validate() error {
	if p.NumGPUs < 1 {
		return fmt.Errorf("dlrm: placement has %d GPUs", p.NumGPUs)
	}
	for t, g := range p.TableGPU {
		if g < 0 || g >= p.NumGPUs {
			return fmt.Errorf("dlrm: table %d placed on GPU %d of %d", t, g, p.NumGPUs)
		}
	}
	return nil
}
