// Package tensor provides the column and batch types shared by the data
// loader, the preprocessing operators and the DLRM trainer.
//
// DLRM input comes in two flavours (paper §2.3): dense features are
// continuous scalars consumed by the MLPs, sparse features are variable
// length lists of categorical ids used to look up embedding rows. A Batch
// groups one column per feature for a fixed number of samples.
//
// Sparse columns use the offsets+values ("CSR") layout so that a whole
// column is two contiguous slices regardless of per-sample list lengths;
// every operator and the embedding lookup iterate it without allocating.
package tensor

import (
	"fmt"
	"math"
)

// Dense is a column of one float32 value per sample.
type Dense struct {
	Name   string
	Values []float32
}

// NewDense allocates a dense column with n samples.
func NewDense(name string, n int) *Dense {
	return &Dense{Name: name, Values: make([]float32, n)}
}

// Len returns the number of samples in the column.
func (d *Dense) Len() int { return len(d.Values) }

// Clone returns a deep copy of the column.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.Name, d.Len())
	copy(out.Values, d.Values)
	return out
}

// HasNaN reports whether any value is NaN.
func (d *Dense) HasNaN() bool {
	for _, v := range d.Values {
		if math.IsNaN(float64(v)) {
			return true
		}
	}
	return false
}

// Sparse is a jagged column of int64 ids in CSR layout: sample i owns
// Values[Offsets[i]:Offsets[i+1]]. len(Offsets) == Len()+1 always holds.
type Sparse struct {
	Name    string
	Offsets []int32
	Values  []int64
}

// NewSparse allocates an empty sparse column with n samples (all lists
// empty).
func NewSparse(name string, n int) *Sparse {
	return &Sparse{Name: name, Offsets: make([]int32, n+1)}
}

// SparseFromLists builds a sparse column from per-sample id lists. Kept
// as a fixture for data's and dlrm's tests.
func SparseFromLists(name string, lists [][]int64) *Sparse {
	s := &Sparse{Name: name, Offsets: make([]int32, len(lists)+1)}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	s.Values = make([]int64, 0, total)
	for i, l := range lists {
		s.Values = append(s.Values, l...)
		s.Offsets[i+1] = int32(len(s.Values))
	}
	return s
}

// Len returns the number of samples in the column.
func (s *Sparse) Len() int { return len(s.Offsets) - 1 }

// NNZ returns the total number of ids across all samples.
func (s *Sparse) NNZ() int { return len(s.Values) }

// Row returns the id list of sample i. The returned slice aliases the
// column storage.
func (s *Sparse) Row(i int) []int64 {
	return s.Values[s.Offsets[i]:s.Offsets[i+1]]
}

// Clone returns a deep copy of the column.
func (s *Sparse) Clone() *Sparse {
	out := &Sparse{
		Name:    s.Name,
		Offsets: make([]int32, len(s.Offsets)),
		Values:  make([]int64, len(s.Values)),
	}
	copy(out.Offsets, s.Offsets)
	copy(out.Values, s.Values)
	return out
}

// Slice returns a copy of rows [lo, hi) as a standalone column.
func (s *Sparse) Slice(lo, hi int) *Sparse {
	if lo < 0 || hi > s.Len() || lo > hi {
		panic(fmt.Sprintf("tensor: slice [%d,%d) of %d-row sparse %q", lo, hi, s.Len(), s.Name))
	}
	out := &Sparse{Name: s.Name, Offsets: make([]int32, hi-lo+1)}
	base := s.Offsets[lo]
	for i := lo; i <= hi; i++ {
		out.Offsets[i-lo] = s.Offsets[i] - base
	}
	out.Values = append([]int64(nil), s.Values[base:s.Offsets[hi]]...)
	return out
}

// Validate checks the CSR invariants.
func (s *Sparse) Validate() error {
	if len(s.Offsets) == 0 {
		return fmt.Errorf("tensor: sparse %q has no offsets", s.Name)
	}
	if s.Offsets[0] != 0 {
		return fmt.Errorf("tensor: sparse %q offsets[0]=%d, want 0", s.Name, s.Offsets[0])
	}
	for i := 1; i < len(s.Offsets); i++ {
		if s.Offsets[i] < s.Offsets[i-1] {
			return fmt.Errorf("tensor: sparse %q offsets not monotone at %d", s.Name, i)
		}
	}
	if int(s.Offsets[len(s.Offsets)-1]) != len(s.Values) {
		return fmt.Errorf("tensor: sparse %q last offset %d != len(values) %d",
			s.Name, s.Offsets[len(s.Offsets)-1], len(s.Values))
	}
	return nil
}

// Batch is one unit of training input: a fixed number of samples with a
// set of dense columns, a set of sparse columns and the click labels.
type Batch struct {
	Samples int
	Dense   []*Dense
	Sparse  []*Sparse
	Labels  []float32

	denseIdx  map[string]int
	sparseIdx map[string]int
}

// NewBatch creates an empty batch for n samples.
func NewBatch(n int) *Batch {
	return &Batch{
		Samples:   n,
		denseIdx:  make(map[string]int),
		sparseIdx: make(map[string]int),
	}
}

// AddDense appends a dense column. It returns an error if the name is
// taken or the length disagrees with the batch.
func (b *Batch) AddDense(c *Dense) error {
	if c.Len() != b.Samples {
		return fmt.Errorf("tensor: dense %q has %d samples, batch has %d", c.Name, c.Len(), b.Samples)
	}
	if _, dup := b.denseIdx[c.Name]; dup {
		return fmt.Errorf("tensor: duplicate dense column %q", c.Name)
	}
	b.denseIdx[c.Name] = len(b.Dense)
	b.Dense = append(b.Dense, c)
	return nil
}

// AddSparse appends a sparse column with the same checks as AddDense.
func (b *Batch) AddSparse(c *Sparse) error {
	if c.Len() != b.Samples {
		return fmt.Errorf("tensor: sparse %q has %d samples, batch has %d", c.Name, c.Len(), b.Samples)
	}
	if _, dup := b.sparseIdx[c.Name]; dup {
		return fmt.Errorf("tensor: duplicate sparse column %q", c.Name)
	}
	b.sparseIdx[c.Name] = len(b.Sparse)
	b.Sparse = append(b.Sparse, c)
	return nil
}

// DenseByName returns the dense column with the given name, or nil.
func (b *Batch) DenseByName(name string) *Dense {
	if i, ok := b.denseIdx[name]; ok {
		return b.Dense[i]
	}
	return nil
}

// SparseByName returns the sparse column with the given name, or nil.
func (b *Batch) SparseByName(name string) *Sparse {
	if i, ok := b.sparseIdx[name]; ok {
		return b.Sparse[i]
	}
	return nil
}

// ReplaceDense swaps the column stored under c.Name (which must exist)
// with c. Operators use it to publish outputs in place.
func (b *Batch) ReplaceDense(c *Dense) error {
	i, ok := b.denseIdx[c.Name]
	if !ok {
		return fmt.Errorf("tensor: no dense column %q to replace", c.Name)
	}
	if c.Len() != b.Samples {
		return fmt.Errorf("tensor: dense %q has %d samples, batch has %d", c.Name, c.Len(), b.Samples)
	}
	b.Dense[i] = c
	return nil
}

// ReplaceSparse is ReplaceDense for sparse columns.
func (b *Batch) ReplaceSparse(c *Sparse) error {
	i, ok := b.sparseIdx[c.Name]
	if !ok {
		return fmt.Errorf("tensor: no sparse column %q to replace", c.Name)
	}
	if c.Len() != b.Samples {
		return fmt.Errorf("tensor: sparse %q has %d samples, batch has %d", c.Name, c.Len(), b.Samples)
	}
	b.Sparse[i] = c
	return nil
}

// AddOrReplaceSparse publishes c whether or not the name exists yet.
func (b *Batch) AddOrReplaceSparse(c *Sparse) error {
	if _, ok := b.sparseIdx[c.Name]; ok {
		return b.ReplaceSparse(c)
	}
	return b.AddSparse(c)
}

// AddOrReplaceDense publishes c whether or not the name exists yet.
func (b *Batch) AddOrReplaceDense(c *Dense) error {
	if _, ok := b.denseIdx[c.Name]; ok {
		return b.ReplaceDense(c)
	}
	return b.AddDense(c)
}

// ShallowCopy returns a batch sharing the column data but owning its
// own column tables, so concurrent executors can publish new columns
// into independent views and merge them later. Mutating shared column
// *contents* through a shallow copy is a data race; preprocessing
// operators never mutate their inputs (they clone), which is what makes
// this safe.
func (b *Batch) ShallowCopy() *Batch {
	out := NewBatch(b.Samples)
	out.Dense = append([]*Dense(nil), b.Dense...)
	out.Sparse = append([]*Sparse(nil), b.Sparse...)
	for k, v := range b.denseIdx {
		out.denseIdx[k] = v
	}
	for k, v := range b.sparseIdx {
		out.sparseIdx[k] = v
	}
	out.Labels = b.Labels
	return out
}

// Validate checks every column against the batch invariants.
func (b *Batch) Validate() error {
	if b.Samples < 0 {
		return fmt.Errorf("tensor: batch has %d samples", b.Samples)
	}
	for _, d := range b.Dense {
		if d.Len() != b.Samples {
			return fmt.Errorf("tensor: dense %q length %d != %d", d.Name, d.Len(), b.Samples)
		}
	}
	for _, s := range b.Sparse {
		if err := s.Validate(); err != nil {
			return err
		}
		if s.Len() != b.Samples {
			return fmt.Errorf("tensor: sparse %q length %d != %d", s.Name, s.Len(), b.Samples)
		}
	}
	if b.Labels != nil && len(b.Labels) != b.Samples {
		return fmt.Errorf("tensor: labels length %d != %d", len(b.Labels), b.Samples)
	}
	return nil
}
