package data

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// rapcolBlock returns a container header followed by a batch block that
// declares samples rows and one column of kind, with an empty name, and
// then the given body bytes.
func rapcolBlock(samples uint64, kind byte, body ...byte) []byte {
	b := []byte(rapcolMagic)
	b = binary.LittleEndian.AppendUint16(b, rapcolVersion)
	b = binary.AppendUvarint(b, samples)
	b = binary.AppendUvarint(b, 1) // one column
	b = append(b, kind, 0)         // kind, empty name
	return append(b, body...)
}

// TestRapcolRejectsOverflowingOffsets: an offset delta of 2^32−1 and a
// value count of 2^64−1 wrap to −1 in int32 and int64 and used to agree,
// sizing the value slice from the claimed count.
func TestRapcolRejectsOverflowingOffsets(t *testing.T) {
	body := binary.AppendUvarint(nil, math.MaxUint32)
	body = binary.AppendUvarint(body, math.MaxUint64)
	in := rapcolBlock(1, colKindSparse, body...)
	if b, err := NewReader(bytes.NewReader(in)).Next(); err == nil {
		t.Fatalf("overflowing offset accepted: %+v", b)
	}
	// Two in-range deltas whose sum passes math.MaxInt32.
	body = binary.AppendUvarint(nil, math.MaxInt32)
	body = binary.AppendUvarint(body, 1)
	if _, err := NewReader(bytes.NewReader(rapcolBlock(2, colKindSparse, body...))).Next(); err == nil {
		t.Fatal("offsets summing past math.MaxInt32 accepted")
	}
}

// TestRapcolRejectsOversizedSampleCount: a sample count that does not
// fit the int32 offsets is an error, not a batch with a negative or
// truncated Samples.
func TestRapcolRejectsOversizedSampleCount(t *testing.T) {
	for _, n := range []uint64{math.MaxInt32 + 1, 1 << 63, math.MaxUint64} {
		b := []byte(rapcolMagic)
		b = binary.LittleEndian.AppendUint16(b, rapcolVersion)
		b = binary.AppendUvarint(b, n)
		b = binary.AppendUvarint(b, 0) // no columns
		if got, err := NewReader(bytes.NewReader(b)).Next(); err == nil {
			t.Errorf("%d samples accepted as a batch of %d", n, got.Samples)
		}
	}
}

// TestRapcolClaimedCountsDoNotAllocate: a block that claims
// math.MaxInt32 rows but holds a few bytes fails at the end of its input,
// having allocated about what it read rather than 8 GB for a dense
// column, labels or sparse offsets.
func TestRapcolClaimedCountsDoNotAllocate(t *testing.T) {
	for _, kind := range []byte{colKindDense, colKindLabels, colKindSparse} {
		in := rapcolBlock(math.MaxInt32, kind, 1, 2, 3, 4, 5, 6, 7, 8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewReader(bytes.NewReader(in)).Next()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Errorf("kind %d: error %v, want the input to run out", kind, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("kind %d: allocated %d bytes for an %d-byte input", kind, alloc, len(in))
		}
	}
}

// TestOpenDatasetRejectsShardPaths: a shard name must be a plain file
// name inside the dataset directory.
func TestOpenDatasetRejectsShardPaths(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"../x.rapcol", "sub/x.rapcol", "/etc/passwd", "", ".", ".."} {
		manifest := `{"shards":["ok.rapcol",` + strconv.Quote(name) + `],"batches":1,"samples_per_batch":1}`
		if err := os.WriteFile(filepath.Join(dir, metaFile), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDataset(dir); err == nil {
			t.Errorf("shard %q accepted", name)
		}
	}
}

// FuzzReader: every input yields batches that pass Validate until an
// error or io.EOF, and never a panic. The seed corpus holds containers
// of one and two generated batches, every prefix of the smallest,
// single-bit flips of each, and the malformed blocks above.
func FuzzReader(f *testing.F) {
	var valid [][]byte
	for _, c := range []struct{ dense, sparse, batches, samples int }{
		{1, 1, 1, 2}, {2, 2, 2, 3}, {0, 3, 1, 5},
	} {
		g := NewGenerator(GenConfig{NumDense: c.dense, NumSparse: c.sparse, Seed: 7})
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for range c.batches {
			if err := w.WriteBatch(g.NextBatch(c.samples)); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		valid = append(valid, buf.Bytes())
	}
	for _, v := range valid {
		f.Add(v)
		for bit := 0; bit < 8*len(v); bit += 7 {
			flipped := bytes.Clone(v)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped)
		}
	}
	for n := range valid[0] {
		f.Add(valid[0][:n])
	}
	// The malformed blocks the tests above pin.
	f.Add(rapcolBlock(1, colKindSparse, 0xff, 0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add(rapcolBlock(1<<63, colKindDense))
	f.Add(rapcolBlock(math.MaxInt32, colKindSparse, 1, 2, 3))
	f.Fuzz(func(t *testing.T, in []byte) {
		r := NewReader(bytes.NewReader(in))
		for {
			b, err := r.Next()
			if err != nil {
				return
			}
			if err := b.Validate(); err != nil {
				t.Fatalf("Next returned an invalid batch: %v", err)
			}
		}
	})
}
