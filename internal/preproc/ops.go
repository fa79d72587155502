package preproc

import (
	"fmt"
	"math"
	"sort"

	"rap/internal/tensor"
)

// Shape describes the data volume an operator will see, for cost
// estimation ahead of execution.
type Shape struct {
	Samples int
	// AvgListLen is the expected multi-hot list length of sparse inputs.
	AvgListLen float64
}

func (s Shape) listLen() float64 {
	if s.AvgListLen <= 0 {
		return 1
	}
	return s.AvgListLen
}

// Op is one preprocessing operator instance: a node of a preprocessing
// DAG bound to concrete input/output columns.
type Op interface {
	// ID is unique within a plan.
	ID() string
	Type() OpType
	// Inputs are the column names the operator reads.
	Inputs() []string
	// Output is the column name the operator writes.
	Output() string
	// Apply performs the real data transform on b.
	Apply(b *tensor.Batch) error
	// Spec estimates the operator's simulated kernel cost for the shape.
	Spec(shape Shape) KernelSpec
}

type base struct {
	id  string
	typ OpType
	in  []string
	out string
}

func (b base) ID() string       { return b.id }
func (b base) Type() OpType     { return b.typ }
func (b base) Inputs() []string { return b.in }
func (b base) Output() string   { return b.out }

func (b base) spec(elements, paramScale float64) KernelSpec {
	return KernelSpec{Name: b.id, Type: b.typ, Elements: elements, ParamScale: paramScale, FusedCount: 1}
}

func denseIn(b *tensor.Batch, op, name string) (*tensor.Dense, error) {
	c := b.DenseByName(name)
	if c == nil {
		return nil, fmt.Errorf("preproc: %s: no dense column %q", op, name)
	}
	return c, nil
}

func sparseIn(b *tensor.Batch, op, name string) (*tensor.Sparse, error) {
	c := b.SparseByName(name)
	if c == nil {
		return nil, fmt.Errorf("preproc: %s: no sparse column %q", op, name)
	}
	return c, nil
}

// ---------------------------------------------------------------- FillNull

// FillNull replaces NaNs in a dense column, or empty lists in a sparse
// column, with a default.
type FillNull struct {
	base
	// Dense selects the dense flavour; otherwise the sparse flavour.
	Dense bool
	// Value replaces NaNs (dense) or empty lists (sparse, as int64).
	Value float64
}

// NewFillNullDense builds a dense FillNull.
func NewFillNullDense(id, in, out string, value float64) *FillNull {
	return &FillNull{base: base{id, OpFillNull, []string{in}, out}, Dense: true, Value: value}
}

// NewFillNullSparse builds a sparse FillNull.
func NewFillNullSparse(id, in, out string, fillID int64) *FillNull {
	return &FillNull{base: base{id, OpFillNull, []string{in}, out}, Value: float64(fillID)}
}

// Apply implements Op.
func (o *FillNull) Apply(b *tensor.Batch) error {
	if o.Dense {
		in, err := denseIn(b, o.id, o.in[0])
		if err != nil {
			return err
		}
		out := in.Clone()
		out.Name = o.out
		for i, v := range out.Values {
			if math.IsNaN(float64(v)) {
				out.Values[i] = float32(o.Value)
			}
		}
		return b.AddOrReplaceDense(out)
	}
	in, err := sparseIn(b, o.id, o.in[0])
	if err != nil {
		return err
	}
	out := tensor.NewSparse(o.out, in.Len())
	for i := 0; i < in.Len(); i++ {
		row := in.Row(i)
		if len(row) == 0 {
			out.Values = append(out.Values, int64(o.Value))
		} else {
			out.Values = append(out.Values, row...)
		}
		out.Offsets[i+1] = int32(len(out.Values))
	}
	return b.AddOrReplaceSparse(out)
}

// Spec implements Op.
func (o *FillNull) Spec(s Shape) KernelSpec {
	el := float64(s.Samples)
	if !o.Dense {
		el *= s.listLen()
	}
	return o.spec(el, 1)
}

// ---------------------------------------------------------------- Cast

// Cast truncates dense values to their integer part (the Table 1 "cast
// the data to a different type" op); NaNs become 0.
type Cast struct{ base }

// NewCast builds a Cast.
func NewCast(id, in, out string) *Cast {
	return &Cast{base{id, OpCast, []string{in}, out}}
}

// Apply implements Op.
func (o *Cast) Apply(b *tensor.Batch) error {
	in, err := denseIn(b, o.id, o.in[0])
	if err != nil {
		return err
	}
	out := tensor.NewDense(o.out, in.Len())
	for i, v := range in.Values {
		if math.IsNaN(float64(v)) {
			out.Values[i] = 0
		} else {
			out.Values[i] = float32(int64(v))
		}
	}
	return b.AddOrReplaceDense(out)
}

// Spec implements Op.
func (o *Cast) Spec(s Shape) KernelSpec { return o.spec(float64(s.Samples), 1) }

// ---------------------------------------------------------------- Logit

// Logit normalizes positive dense values: p = x/(1+x) squashed into
// (eps, 1-eps), output log(p/(1-p)).
type Logit struct {
	base
	Eps float64
}

// NewLogit builds a Logit with the given epsilon (default 1e-4 if ≤ 0).
func NewLogit(id, in, out string, eps float64) *Logit {
	if eps <= 0 {
		eps = 1e-4
	}
	return &Logit{base{id, OpLogit, []string{in}, out}, eps}
}

// Apply implements Op.
func (o *Logit) Apply(b *tensor.Batch) error {
	in, err := denseIn(b, o.id, o.in[0])
	if err != nil {
		return err
	}
	out := tensor.NewDense(o.out, in.Len())
	for i, v := range in.Values {
		x := float64(v)
		p := x / (1 + math.Abs(x))
		if p < o.Eps {
			p = o.Eps
		}
		if p > 1-o.Eps {
			p = 1 - o.Eps
		}
		out.Values[i] = float32(math.Log(p / (1 - p)))
	}
	return b.AddOrReplaceDense(out)
}

// Spec implements Op.
func (o *Logit) Spec(s Shape) KernelSpec { return o.spec(float64(s.Samples), 1) }

// ---------------------------------------------------------------- BoxCox

// BoxCox applies the Box-Cox power transform (x^λ − 1)/λ to dense values
// clamped to be positive.
type BoxCox struct {
	base
	Lambda float64
}

// NewBoxCox builds a BoxCox with the given λ (default 0.5 if 0).
func NewBoxCox(id, in, out string, lambda float64) *BoxCox {
	if lambda == 0 {
		lambda = 0.5
	}
	return &BoxCox{base{id, OpBoxCox, []string{in}, out}, lambda}
}

// Apply implements Op.
func (o *BoxCox) Apply(b *tensor.Batch) error {
	in, err := denseIn(b, o.id, o.in[0])
	if err != nil {
		return err
	}
	out := tensor.NewDense(o.out, in.Len())
	for i, v := range in.Values {
		x := math.Max(float64(v), 1e-6)
		out.Values[i] = float32((math.Pow(x, o.Lambda) - 1) / o.Lambda)
	}
	return b.AddOrReplaceDense(out)
}

// Spec implements Op.
func (o *BoxCox) Spec(s Shape) KernelSpec { return o.spec(float64(s.Samples), 1) }

// ---------------------------------------------------------------- OneHot

// OneHot turns a dense value into a categorical id in [0, Buckets) by
// truncation modulo Buckets, emitting a one-hot sparse column.
type OneHot struct {
	base
	Buckets int64
}

// NewOneHot builds a OneHot with the given bucket count (min 2).
func NewOneHot(id, in, out string, buckets int64) *OneHot {
	if buckets < 2 {
		buckets = 2
	}
	return &OneHot{base{id, OpOneHot, []string{in}, out}, buckets}
}

// Apply implements Op.
func (o *OneHot) Apply(b *tensor.Batch) error {
	in, err := denseIn(b, o.id, o.in[0])
	if err != nil {
		return err
	}
	out := tensor.NewSparse(o.out, in.Len())
	out.Values = make([]int64, in.Len())
	for i, v := range in.Values {
		x := int64(math.Abs(float64(v)))
		if math.IsNaN(float64(v)) {
			x = 0
		}
		out.Values[i] = x % o.Buckets
		out.Offsets[i+1] = int32(i + 1)
	}
	return b.AddOrReplaceSparse(out)
}

// Spec implements Op.
func (o *OneHot) Spec(s Shape) KernelSpec {
	return o.spec(float64(s.Samples), 1+math.Log2(float64(o.Buckets))/64)
}

// ---------------------------------------------------------------- SigridHash

// SigridHash hashes every id of a sparse column into [0, HashSize).
type SigridHash struct {
	base
	HashSize int64
}

// NewSigridHash builds a SigridHash (hash size min 2).
func NewSigridHash(id, in, out string, hashSize int64) *SigridHash {
	if hashSize < 2 {
		hashSize = 2
	}
	return &SigridHash{base{id, OpSigridHash, []string{in}, out}, hashSize}
}

// splitmix64 is the id hash used by SigridHash and NGram.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashID maps one id into [0, hashSize).
func HashID(id int64, hashSize int64) int64 {
	return int64(splitmix64(uint64(id)) % uint64(hashSize))
}

// Apply implements Op.
func (o *SigridHash) Apply(b *tensor.Batch) error {
	in, err := sparseIn(b, o.id, o.in[0])
	if err != nil {
		return err
	}
	out := in.Clone()
	out.Name = o.out
	for i, v := range out.Values {
		out.Values[i] = HashID(v, o.HashSize)
	}
	return b.AddOrReplaceSparse(out)
}

// Spec implements Op.
func (o *SigridHash) Spec(s Shape) KernelSpec {
	return o.spec(float64(s.Samples)*s.listLen(), 1)
}

// ---------------------------------------------------------------- FirstX

// FirstX truncates every sparse list to its first X ids.
type FirstX struct {
	base
	X int
}

// NewFirstX builds a FirstX (X min 1).
func NewFirstX(id, in, out string, x int) *FirstX {
	if x < 1 {
		x = 1
	}
	return &FirstX{base{id, OpFirstX, []string{in}, out}, x}
}

// Apply implements Op.
func (o *FirstX) Apply(b *tensor.Batch) error {
	in, err := sparseIn(b, o.id, o.in[0])
	if err != nil {
		return err
	}
	out := tensor.NewSparse(o.out, in.Len())
	for i := 0; i < in.Len(); i++ {
		row := in.Row(i)
		if len(row) > o.X {
			row = row[:o.X]
		}
		out.Values = append(out.Values, row...)
		out.Offsets[i+1] = int32(len(out.Values))
	}
	return b.AddOrReplaceSparse(out)
}

// Spec implements Op.
func (o *FirstX) Spec(s Shape) KernelSpec {
	return o.spec(float64(s.Samples)*s.listLen(), 1)
}

// ---------------------------------------------------------------- Clamp

// Clamp clips sparse ids into [Lo, Hi].
type Clamp struct {
	base
	Lo, Hi int64
}

// NewClamp builds a Clamp; Lo must be ≤ Hi.
func NewClamp(id, in, out string, lo, hi int64) *Clamp {
	if lo > hi {
		lo, hi = hi, lo
	}
	return &Clamp{base{id, OpClamp, []string{in}, out}, lo, hi}
}

// Apply implements Op.
func (o *Clamp) Apply(b *tensor.Batch) error {
	in, err := sparseIn(b, o.id, o.in[0])
	if err != nil {
		return err
	}
	out := in.Clone()
	out.Name = o.out
	for i, v := range out.Values {
		if v < o.Lo {
			out.Values[i] = o.Lo
		} else if v > o.Hi {
			out.Values[i] = o.Hi
		}
	}
	return b.AddOrReplaceSparse(out)
}

// Spec implements Op.
func (o *Clamp) Spec(s Shape) KernelSpec {
	return o.spec(float64(s.Samples)*s.listLen(), 1)
}

// ---------------------------------------------------------------- Bucketize

// Bucketize maps a dense value to the index of the first border ≥ value,
// emitting a one-hot sparse column (Table 1: "shard features based on
// bucket borders").
type Bucketize struct {
	base
	Borders []float32 // ascending
}

// NewBucketize builds a Bucketize; borders are sorted defensively.
func NewBucketize(id, in, out string, borders []float32) *Bucketize {
	bs := append([]float32(nil), borders...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return &Bucketize{base{id, OpBucketize, []string{in}, out}, bs}
}

// Apply implements Op.
func (o *Bucketize) Apply(b *tensor.Batch) error {
	in, err := denseIn(b, o.id, o.in[0])
	if err != nil {
		return err
	}
	out := tensor.NewSparse(o.out, in.Len())
	out.Values = make([]int64, in.Len())
	for i, v := range in.Values {
		idx := sort.Search(len(o.Borders), func(j int) bool { return o.Borders[j] >= v })
		out.Values[i] = int64(idx)
		out.Offsets[i+1] = int32(i + 1)
	}
	return b.AddOrReplaceSparse(out)
}

// Spec implements Op.
func (o *Bucketize) Spec(s Shape) KernelSpec {
	return o.spec(float64(s.Samples), 1+math.Log2(float64(len(o.Borders)+2))/16)
}

// ---------------------------------------------------------------- NGram

// NGram computes n-grams across several sparse input columns (Table 1 /
// the paper's running example): per sample, the ids of all inputs are
// concatenated and every window of N consecutive ids is hashed into a
// new id in [0, HashSize).
type NGram struct {
	base
	N        int
	HashSize int64
}

// NewNGram builds an NGram over the given input columns (N min 2, hash
// size min 2).
func NewNGram(id string, in []string, out string, n int, hashSize int64) *NGram {
	if n < 2 {
		n = 2
	}
	if hashSize < 2 {
		hashSize = 2
	}
	return &NGram{base{id, OpNGram, append([]string(nil), in...), out}, n, hashSize}
}

// Apply implements Op.
func (o *NGram) Apply(b *tensor.Batch) error {
	ins := make([]*tensor.Sparse, len(o.in))
	for i, name := range o.in {
		c, err := sparseIn(b, o.id, name)
		if err != nil {
			return err
		}
		ins[i] = c
	}
	if len(ins) == 0 {
		return fmt.Errorf("preproc: %s: NGram needs at least one input", o.id)
	}
	nSamples := ins[0].Len()
	out := tensor.NewSparse(o.out, nSamples)
	var concat []int64
	for i := 0; i < nSamples; i++ {
		concat = concat[:0]
		for _, c := range ins {
			concat = append(concat, c.Row(i)...)
		}
		for w := 0; w+o.N <= len(concat); w++ {
			h := uint64(0x51ed2701)
			for k := 0; k < o.N; k++ {
				h = splitmix64(h ^ uint64(concat[w+k]))
			}
			out.Values = append(out.Values, int64(h%uint64(o.HashSize)))
		}
		out.Offsets[i+1] = int32(len(out.Values))
	}
	return b.AddOrReplaceSparse(out)
}

// Spec implements Op.
func (o *NGram) Spec(s Shape) KernelSpec {
	ids := s.listLen() * float64(len(o.in))
	grams := math.Max(1, ids-float64(o.N)+1)
	return o.spec(float64(s.Samples)*grams, 1+0.25*float64(o.N-1))
}

// ---------------------------------------------------------------- MapID

// MapID rewrites sparse ids through a lookup table; unmapped ids pass
// through unchanged.
type MapID struct {
	base
	Mapping map[int64]int64
}

// NewMapID builds a MapID.
func NewMapID(id, in, out string, mapping map[int64]int64) *MapID {
	return &MapID{base{id, OpMapID, []string{in}, out}, mapping}
}

// Apply implements Op.
func (o *MapID) Apply(b *tensor.Batch) error {
	in, err := sparseIn(b, o.id, o.in[0])
	if err != nil {
		return err
	}
	out := in.Clone()
	out.Name = o.out
	for i, v := range out.Values {
		if nv, ok := o.Mapping[v]; ok {
			out.Values[i] = nv
		}
	}
	return b.AddOrReplaceSparse(out)
}

// Spec implements Op.
func (o *MapID) Spec(s Shape) KernelSpec {
	return o.spec(float64(s.Samples)*s.listLen(), 1)
}
