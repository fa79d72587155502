package data

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"rap/internal/tensor"
)

// This file implements the pipeline's data-storage tier (paper Figure 2:
// "new data are collected from the inference servers, and stored in the
// Data Storage Nodes"): raw batches are persisted as sharded rapcol
// containers with a JSON manifest, and training streams them back.

// DatasetMeta is the manifest written alongside the shards.
type DatasetMeta struct {
	Batches         int       `json:"batches"`
	SamplesPerBatch int       `json:"samples_per_batch"`
	BatchesPerShard int       `json:"batches_per_shard"`
	Shards          []string  `json:"shards"`
	Gen             GenConfig `json:"generator"`
}

const metaFile = "meta.json"

// DefaultBatchesPerShard is the shard granularity of WriteDataset.
const DefaultBatchesPerShard = 8

// WriteDataset generates `batches` raw batches and persists them under
// dir as rapcol shards plus a manifest. dir is created if needed.
func WriteDataset(dir string, cfg GenConfig, batches, samplesPerBatch int) error {
	if batches <= 0 || samplesPerBatch <= 0 {
		return fmt.Errorf("data: batches and samplesPerBatch must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gen := NewGenerator(cfg)
	meta := DatasetMeta{
		Batches:         batches,
		SamplesPerBatch: samplesPerBatch,
		BatchesPerShard: DefaultBatchesPerShard,
		Gen:             gen.Config(),
	}
	for start := 0; start < batches; start += meta.BatchesPerShard {
		end := start + meta.BatchesPerShard
		if end > batches {
			end = batches
		}
		name := fmt.Sprintf("shard-%05d.rapcol", len(meta.Shards))
		if err := writeShard(filepath.Join(dir, name), gen, end-start, samplesPerBatch); err != nil {
			return err
		}
		meta.Shards = append(meta.Shards, name)
	}
	js, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, metaFile), js, 0o644)
}

func writeShard(path string, gen *Generator, batches, samples int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := NewWriter(f)
	for i := 0; i < batches; i++ {
		if err := w.WriteBatch(gen.NextBatch(samples)); err != nil {
			return fmt.Errorf("data: writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// Dataset is an opened on-disk dataset.
type Dataset struct {
	Dir  string
	Meta DatasetMeta
}

// OpenDataset reads the manifest of a dataset directory.
func OpenDataset(dir string) (*Dataset, error) {
	js, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("data: opening dataset: %w", err)
	}
	var meta DatasetMeta
	if err := json.Unmarshal(js, &meta); err != nil {
		return nil, fmt.Errorf("data: parsing manifest: %w", err)
	}
	if len(meta.Shards) == 0 {
		return nil, fmt.Errorf("data: dataset %s has no shards", dir)
	}
	for _, name := range meta.Shards {
		if name != filepath.Base(name) || name == "." || name == ".." {
			return nil, fmt.Errorf("data: dataset %s: shard %q is not a plain file name", dir, name)
		}
	}
	sorted := append([]string(nil), meta.Shards...)
	sort.Strings(sorted)
	meta.Shards = sorted
	return &Dataset{Dir: dir, Meta: meta}, nil
}

// BatchIter streams the dataset's batches in order.
type BatchIter struct {
	ds    *Dataset
	shard int
	file  *os.File
	r     *Reader
	// Loop makes the iterator wrap around at the end (online training
	// replays the stream instead of terminating).
	Loop bool
}

// Batches returns a fresh iterator over the dataset.
func (d *Dataset) Batches() *BatchIter { return &BatchIter{ds: d} }

// Next returns the next batch; io.EOF at the end unless Loop is set.
func (it *BatchIter) Next() (*tensor.Batch, error) {
	for {
		if it.r == nil {
			if it.shard >= len(it.ds.Meta.Shards) {
				if !it.Loop || it.shard == 0 {
					return nil, io.EOF
				}
				it.shard = 0
			}
			f, err := os.Open(filepath.Join(it.ds.Dir, it.ds.Meta.Shards[it.shard]))
			if err != nil {
				return nil, err
			}
			it.file = f
			it.r = NewReader(f)
		}
		b, err := it.r.Next()
		if err == io.EOF {
			cerr := it.file.Close()
			it.file, it.r = nil, nil
			if cerr != nil {
				return nil, fmt.Errorf("data: closing shard: %w", cerr)
			}
			it.shard++
			continue
		}
		if err != nil {
			// The read error takes precedence over any close error.
			it.file.Close()
			it.file, it.r = nil, nil
			return nil, err
		}
		return b, nil
	}
}

// Close releases the iterator's open shard, if any.
func (it *BatchIter) Close() error {
	if it.file != nil {
		err := it.file.Close()
		it.file, it.r = nil, nil
		return err
	}
	return nil
}
