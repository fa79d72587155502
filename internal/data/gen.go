// Package data generates synthetic Criteo-shaped training data and
// provides rapcol, a small columnar on-disk format standing in for the
// Apache Parquet files the paper loads with CuDF.
//
// The generator reproduces the aspects of Criteo Kaggle / Terabyte that
// matter to RAP: 13 dense + 26 sparse features, per-feature id
// cardinalities ("hash sizes"), Zipf-distributed ids, variable-length
// multi-hot lists, a configurable NaN rate (so FillNull has work to do)
// and an optional per-feature length skew used by the Figure 12 study.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"rap/internal/tensor"
)

// GenConfig describes a synthetic dataset.
type GenConfig struct {
	NumDense  int
	NumSparse int
	// HashSizes is the id cardinality per sparse feature. If shorter
	// than NumSparse the last value repeats; if empty, 100000 is used.
	HashSizes []int64
	// AvgListLen is the mean multi-hot list length (default 3; Criteo
	// itself is one-hot but industrial workloads are multi-hot).
	AvgListLen float64
	// Skew is the Zipf s-parameter for id draws (default 1.2).
	Skew float64
	// NaNRate is the probability that a dense value is NaN (0 means the
	// default 0.05; a negative rate means none).
	NaNRate float64
	// FeatureLenScale optionally scales AvgListLen per sparse feature,
	// producing the skewed preprocessing workload of Figure 12.
	FeatureLenScale []float64
	Seed            int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.NumDense <= 0 {
		c.NumDense = 13
	}
	if c.NumSparse <= 0 {
		c.NumSparse = 26
	}
	if len(c.HashSizes) == 0 {
		c.HashSizes = []int64{100000}
	}
	if c.AvgListLen <= 0 {
		c.AvgListLen = 3
	}
	if c.Skew <= 1 {
		c.Skew = 1.2
	}
	if c.NaNRate < 0 {
		c.NaNRate = 0
	} else if c.NaNRate == 0 {
		c.NaNRate = 0.05
	}
	return c
}

// HashSize returns the id cardinality of sparse feature i.
func (c GenConfig) HashSize(i int) int64 {
	c = c.withDefaults()
	if i < len(c.HashSizes) {
		return c.HashSizes[i]
	}
	return c.HashSizes[len(c.HashSizes)-1]
}

// Generator produces batches deterministically from its seed.
type Generator struct {
	cfg   GenConfig
	rng   *rand.Rand
	zipfs []*rand.Zipf
}

// NewGenerator builds a generator for the config.
func NewGenerator(cfg GenConfig) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.zipfs = make([]*rand.Zipf, cfg.NumSparse)
	for i := range g.zipfs {
		n := uint64(cfg.HashSize(i))
		if n < 2 {
			n = 2
		}
		g.zipfs[i] = rand.NewZipf(g.rng, cfg.Skew, 1, n-1)
	}
	return g
}

// Config returns the generator's (defaulted) configuration.
func (g *Generator) Config() GenConfig { return g.cfg }

// DenseName returns the canonical name of dense feature i.
func DenseName(i int) string { return fmt.Sprintf("int_%d", i) }

// SparseName returns the canonical name of sparse feature i.
func SparseName(i int) string { return fmt.Sprintf("cat_%d", i) }

// NextBatch generates n samples of raw (unpreprocessed) data.
func (g *Generator) NextBatch(n int) *tensor.Batch {
	b := tensor.NewBatch(n)
	for f := 0; f < g.cfg.NumDense; f++ {
		col := tensor.NewDense(DenseName(f), n)
		for i := 0; i < n; i++ {
			if g.rng.Float64() < g.cfg.NaNRate {
				col.Values[i] = float32(math.NaN())
			} else {
				// Log-normal-ish positive counters, like Criteo int features.
				col.Values[i] = float32(math.Exp(g.rng.NormFloat64()) * 10)
			}
		}
		if err := b.AddDense(col); err != nil {
			panic("data: " + err.Error()) // names are unique by construction
		}
	}
	for f := 0; f < g.cfg.NumSparse; f++ {
		avg := g.cfg.AvgListLen
		if f < len(g.cfg.FeatureLenScale) && g.cfg.FeatureLenScale[f] > 0 {
			avg *= g.cfg.FeatureLenScale[f]
		}
		col := tensor.NewSparse(SparseName(f), n)
		for i := 0; i < n; i++ {
			l := g.listLen(avg)
			for j := 0; j < l; j++ {
				col.Values = append(col.Values, int64(g.zipfs[f].Uint64()))
			}
			col.Offsets[i+1] = int32(len(col.Values))
		}
		if err := b.AddSparse(col); err != nil {
			panic("data: " + err.Error())
		}
	}
	b.Labels = make([]float32, n)
	for i := range b.Labels {
		// Make labels weakly learnable: click probability depends on the
		// first dense feature and the parity of the first sparse id.
		p := 0.25
		if v := b.Dense[0].Values[i]; !math.IsNaN(float64(v)) && v > 10 {
			p += 0.3
		}
		if row := b.Sparse[0].Row(i); len(row) > 0 && row[0]%2 == 0 {
			p += 0.2
		}
		if g.rng.Float64() < p {
			b.Labels[i] = 1
		}
	}
	return b
}

// listLen draws a positive list length with the given mean.
func (g *Generator) listLen(avg float64) int {
	if avg <= 1 {
		return 1
	}
	// Geometric-ish around avg, min 1.
	l := 1 + int(g.rng.ExpFloat64()*(avg-1))
	if l > int(avg*6)+1 {
		l = int(avg*6) + 1
	}
	return l
}

// KaggleGen returns the Criteo-Kaggle-shaped generator config (Table 2:
// 33.7M total hash size across 26 tables).
func KaggleGen(seed int64) GenConfig {
	return GenConfig{
		NumDense: 13, NumSparse: 26,
		HashSizes: repeatHash(33_700_000, 26),
		Seed:      seed,
	}
}

// TerabyteGen returns the Criteo-Terabyte-shaped generator config
// (Table 2: 177.9M total hash size).
func TerabyteGen(seed int64) GenConfig {
	return GenConfig{
		NumDense: 13, NumSparse: 26,
		HashSizes: repeatHash(177_900_000, 26),
		Seed:      seed,
	}
}

// repeatHash splits a total cardinality across n tables with a mild
// power-law (a few big tables, many small), matching the public Criteo
// profile more closely than a uniform split.
func repeatHash(total int64, n int) []int64 {
	weights := make([]float64, n)
	var sum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 0.8)
		sum += weights[i]
	}
	out := make([]int64, n)
	for i := range out {
		v := int64(float64(total) * weights[i] / sum)
		if v < 2 {
			v = 2
		}
		out[i] = v
	}
	return out
}
