package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"rap/internal/tensor"
)

// rapcol is a minimal columnar container format: a header with magic and
// version, then a sequence of self-describing batch blocks. Dense
// columns are stored as raw little-endian float32; sparse columns store
// delta-varint offsets and zigzag-varint values. It plays the role of
// the Parquet files in the paper's pipeline (Figure 2's data storage
// nodes): raw bytes on disk that the input-preprocessing stage consumes.

const (
	rapcolMagic   = "RAPC"
	rapcolVersion = 1

	colKindDense  = 0
	colKindSparse = 1
	colKindLabels = 2
)

// Writer streams batches into a rapcol container.
type Writer struct {
	w       *bufio.Writer
	started bool
	err     error
}

// NewWriter creates a rapcol writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) header() {
	if w.started || w.err != nil {
		return
	}
	w.started = true
	if _, err := w.w.WriteString(rapcolMagic); err != nil {
		w.err = err
		return
	}
	w.err = binary.Write(w.w, binary.LittleEndian, uint16(rapcolVersion))
}

// WriteBatch appends one batch block.
func (w *Writer) WriteBatch(b *tensor.Batch) error {
	if w.err != nil {
		return w.err
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("data: refusing to write invalid batch: %w", err)
	}
	w.header()
	ncols := len(b.Dense) + len(b.Sparse)
	if b.Labels != nil {
		ncols++
	}
	w.writeUvarint(uint64(b.Samples))
	w.writeUvarint(uint64(ncols))
	for _, d := range b.Dense {
		w.writeByte(colKindDense)
		w.writeString(d.Name)
		for _, v := range d.Values {
			w.writeU32(math.Float32bits(v))
		}
	}
	for _, s := range b.Sparse {
		w.writeByte(colKindSparse)
		w.writeString(s.Name)
		prev := int32(0)
		for _, off := range s.Offsets[1:] {
			w.writeUvarint(uint64(off - prev))
			prev = off
		}
		w.writeUvarint(uint64(len(s.Values)))
		for _, v := range s.Values {
			w.writeVarint(v)
		}
	}
	if b.Labels != nil {
		w.writeByte(colKindLabels)
		w.writeString("label")
		for _, v := range b.Labels {
			w.writeU32(math.Float32bits(v))
		}
	}
	return w.err
}

// Flush flushes buffered output. Call once after the last batch.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func (w *Writer) writeByte(b byte) {
	if w.err == nil {
		w.err = w.w.WriteByte(b)
	}
}

func (w *Writer) writeU32(v uint32) {
	if w.err == nil {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		_, w.err = w.w.Write(buf[:])
	}
}

func (w *Writer) writeUvarint(v uint64) {
	if w.err == nil {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], v)
		_, w.err = w.w.Write(buf[:n])
	}
}

func (w *Writer) writeVarint(v int64) {
	if w.err == nil {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], v)
		_, w.err = w.w.Write(buf[:n])
	}
}

func (w *Writer) writeString(s string) {
	w.writeUvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

// Reader iterates the batches of a rapcol container.
type Reader struct {
	r      *bufio.Reader
	header bool
}

// NewReader creates a rapcol reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

func (r *Reader) readHeader() error {
	if r.header {
		return nil
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r.r, magic); err != nil {
		return fmt.Errorf("data: reading rapcol magic: %w", err)
	}
	if string(magic) != rapcolMagic {
		return fmt.Errorf("data: bad rapcol magic %q", magic)
	}
	var version uint16
	if err := binary.Read(r.r, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("data: reading rapcol version: %w", err)
	}
	if version != rapcolVersion {
		return fmt.Errorf("data: unsupported rapcol version %d", version)
	}
	r.header = true
	return nil
}

// Next reads the next batch, returning io.EOF at end of container. The
// counts in a block are untrusted: a sample count above math.MaxInt32
// (offsets are int32) and an offset that overflows are errors, and every
// column grows as its values arrive, so a header that overstates a count
// fails at the end of the input instead of allocating for it first.
func (r *Reader) Next() (*tensor.Batch, error) {
	if err := r.readHeader(); err != nil {
		return nil, err
	}
	samples, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("data: reading batch size: %w", err)
	}
	if samples > math.MaxInt32 {
		return nil, fmt.Errorf("data: batch of %d samples exceeds the int32 offset range", samples)
	}
	n := int(samples)
	ncols, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, fmt.Errorf("data: reading column count: %w", err)
	}
	b := tensor.NewBatch(n)
	for c := uint64(0); c < ncols; c++ {
		kind, err := r.r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("data: reading column kind: %w", err)
		}
		name, err := r.readString()
		if err != nil {
			return nil, err
		}
		switch kind {
		case colKindDense:
			vals, err := r.readF32s(n)
			if err != nil {
				return nil, err
			}
			if err := b.AddDense(&tensor.Dense{Name: name, Values: vals}); err != nil {
				return nil, err
			}
		case colKindSparse:
			col, err := r.readSparse(name, n)
			if err != nil {
				return nil, err
			}
			if err := b.AddSparse(col); err != nil {
				return nil, err
			}
		case colKindLabels:
			if b.Labels, err = r.readF32s(n); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("data: unknown column kind %d", kind)
		}
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("data: corrupt batch: %w", err)
	}
	return b, nil
}

// growCap caps the capacity a column is first allocated with; past it
// the column grows as values arrive.
const growCap = 1 << 16

// readSparse reads a sparse column of n rows: delta-varint offsets, the
// value count, then zigzag-varint values.
func (r *Reader) readSparse(name string, n int) (*tensor.Sparse, error) {
	col := &tensor.Sparse{Name: name, Offsets: make([]int32, 1, min(n, growCap)+1)}
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			return nil, fmt.Errorf("data: reading offsets of %q: %w", name, err)
		}
		if d > uint64(math.MaxInt32-prev) {
			return nil, fmt.Errorf("data: offsets of %q overflow int32 at row %d", name, i)
		}
		prev += int64(d)
		col.Offsets = append(col.Offsets, int32(prev))
	}
	nvals, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, fmt.Errorf("data: reading value count of %q: %w", name, err)
	}
	if nvals != uint64(prev) {
		return nil, fmt.Errorf("data: column %q declares %d values but offsets say %d", name, nvals, prev)
	}
	col.Values = make([]int64, 0, min(int(prev), growCap))
	for range prev {
		v, err := binary.ReadVarint(r.r)
		if err != nil {
			return nil, fmt.Errorf("data: reading values of %q: %w", name, err)
		}
		col.Values = append(col.Values, v)
	}
	return col, nil
}

// readF32s reads n little-endian float32 values.
func (r *Reader) readF32s(n int) ([]float32, error) {
	out := make([]float32, 0, min(n, growCap))
	for range n {
		u, err := r.readU32()
		if err != nil {
			return nil, err
		}
		out = append(out, math.Float32frombits(u))
	}
	return out, nil
}

func (r *Reader) readU32() (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		return 0, fmt.Errorf("data: reading f32: %w", err)
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func (r *Reader) readString() (string, error) {
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		return "", fmt.Errorf("data: reading string length: %w", err)
	}
	if n > 1<<20 {
		return "", fmt.Errorf("data: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return "", fmt.Errorf("data: reading string: %w", err)
	}
	return string(buf), nil
}
