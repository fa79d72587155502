package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"rap/internal/gpusim"
)

// chromeBufSize is the size of the one buffer WriteChromeTrace renders
// into; no single Write it makes is larger.
const chromeBufSize = 64 << 10

// chromeSlack is how full the buffer may get before it is flushed, so
// that an ordinary event never grows it past chromeBufSize.
const chromeSlack = 1 << 10

// tidFor buckets ops into display rows: training ops, preprocessing,
// communication, host-side work.
func tidFor(tag string) int {
	switch tag {
	case "train":
		return 0
	case "preproc":
		return 1
	case "comm":
		return 2
	case "hostcopy", "cpu":
		return 3
	default:
		return 4
	}
}

// startBits maps a start time to a key whose unsigned order is the
// float order: a negative value's bits are flipped, a non-negative value's
// sign bit is set, and −0 is folded onto +0 first, since the two are
// equal under <. NaN starts never reach it: they are rejected.
//
//rap:unit start us
func startBits(start float64) uint64 {
	b := math.Float64bits(start)
	if b == 1<<63 {
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixDigit is the width of one radix-sort digit in bits: six
// counting passes cover a 64-bit key.
const radixDigit = 11

// digit returns the d-th radixDigit-bit digit of k, from the lowest.
func digit(k uint64, d int) uint64 { return (k >> (radixDigit * d)) & (1<<radixDigit - 1) }

// radixSort sorts the op indices order by keys[i] with a stable LSD
// radix sort: one counting pass per digit, none for a digit that every
// key shares. tmp is scratch of len(order); the result is order or
// tmp.
func radixSort(order, tmp []int32, keys []uint64) []int32 {
	var counts [(64 + radixDigit - 1) / radixDigit][1 << radixDigit]int32
	for _, i := range order {
		for d := range counts {
			counts[d][digit(keys[i], d)]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if len(order) == 0 || int(c[digit(keys[order[0]], d)]) == len(order) {
			continue
		}
		var sum int32
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, i := range order {
			b := digit(keys[i], d)
			tmp[c[b]] = i
			c[b]++
		}
		order, tmp = tmp, order
	}
	return order
}

// chromeRow is one (pid, tid) display row's memo: the rendered
// `{"name":…,"cat":…,"ph":"X","ts":` prefix of its last event, valid
// while the row's next event has the same name and tag.
type chromeRow struct {
	name, tag string
	prefix    []byte
}

// chromeTids is the number of thread rows tidFor assigns.
const chromeTids = 5

// WriteChromeTrace renders the simulation result as a Chrome trace-event
// JSON array of "complete" events (ph=X, timestamps and durations in
// microseconds): one process per GPU (host ops, GPU < 0, on pid
// numGPUs), one thread row per op class, in (start, op ID) order, where
// an op's ID is its index in res.Ops. Ops of zero or negative width are
// left out. Load the file in chrome://tracing or Perfetto to inspect
// the co-running timeline visually.
//
// The bytes are those encoding/json's Encoder writes for the same event
// list, but streamed through one chromeBufSize buffer. A nil result,
// numGPUs < 1, a visible op on GPU >= numGPUs or a visible op with a
// non-finite timestamp or duration is an error returned before anything
// is written.
func WriteChromeTrace(w io.Writer, res *gpusim.Result, numGPUs int) error {
	if res == nil {
		return fmt.Errorf("trace: nil simulation result")
	}
	if numGPUs < 1 {
		return fmt.Errorf("trace: %d GPUs, want at least 1", numGPUs)
	}
	if len(res.Ops) > math.MaxInt32 {
		return fmt.Errorf("trace: %d ops exceed the %d a trace indexes", len(res.Ops), math.MaxInt32)
	}
	// Only visible ops enter order, in ID order, so the stable sort
	// leaves ops that tie on start in ID order. keys[i] is op i's
	// startBits.
	keys := make([]uint64, len(res.Ops))
	order := make([]int32, 0, len(res.Ops))
	maxGPU := -1
	for i := range res.Ops {
		o := &res.Ops[i]
		if o.End <= o.Start {
			continue // barriers and zero-width ops clutter the view
		}
		if o.GPU >= numGPUs {
			return fmt.Errorf("trace: op %d (%q) on GPU %d of %d", i, o.Name, o.GPU, numGPUs)
		}
		if !finite(o.Start) || !finite(o.End-o.Start) {
			return fmt.Errorf("trace: op %d (%q) spans [%g, %g], not finite", i, o.Name, o.Start, o.End)
		}
		maxGPU = max(maxGPU, o.GPU)
		keys[i] = startBits(o.Start)
		order = append(order, int32(i))
	}
	order = radixSort(order, make([]int32, len(order)), keys)

	// Sorted starts put equal timestamps side by side, so ts keeps the
	// last one's text; durations repeat across the whole run, so each
	// distinct one is formatted once into durText. Row r*chromeTids+tid
	// is GPU r-1's, row tid the host's.
	var (
		ts      []byte
		tsBits  uint64
		durText []byte
		durAt   = map[uint64][2]int32{}
		rows    = make([]chromeRow, (maxGPU+2)*chromeTids)
	)
	buf := make([]byte, 0, chromeBufSize)
	buf = append(buf, '[')
	for n, i := range order {
		o := &res.Ops[i]
		if n > 0 {
			buf = append(buf, ',')
		}
		tid := tidFor(o.Tag)
		pid := o.GPU
		if pid < 0 {
			pid = numGPUs // host row
		}
		row := &rows[(max(o.GPU, -1)+1)*chromeTids+tid]
		if row.prefix != nil && o.Name == row.name && o.Tag == row.tag {
			buf = append(buf, row.prefix...)
		} else {
			at := len(buf)
			buf = append(buf, `{"name":`...)
			buf = appendJSONString(buf, o.Name)
			buf = append(buf, `,"cat":`...)
			buf = appendJSONString(buf, o.Tag)
			buf = append(buf, `,"ph":"X","ts":`...)
			row.prefix = append(row.prefix[:0], buf[at:]...)
			row.name, row.tag = o.Name, o.Tag
		}
		if bits := math.Float64bits(o.Start); ts == nil || bits != tsBits {
			ts, tsBits = appendJSONFloat(ts[:0], o.Start), bits
		}
		buf = append(buf, ts...)
		buf = append(buf, `,"dur":`...)
		dur := o.End - o.Start
		at, ok := durAt[math.Float64bits(dur)]
		if !ok {
			at[0] = int32(len(durText))
			durText = appendJSONFloat(durText, dur)
			at[1] = int32(len(durText))
			durAt[math.Float64bits(dur)] = at
		}
		buf = append(buf, durText[at[0]:at[1]]...)
		buf = append(buf, `,"pid":`...)
		buf = strconv.AppendInt(buf, int64(pid), 10)
		buf = append(buf, `,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tid), 10)
		buf = append(buf, '}')
		if len(buf) >= chromeBufSize-chromeSlack {
			if err := writeChunks(w, buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, "]\n"...)
	return writeChunks(w, buf)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// writeChunks writes b in pieces of at most chromeBufSize bytes, so an
// event that outgrew the buffer still reaches w in bounded writes.
func writeChunks(w io.Writer, b []byte) error {
	for len(b) > 0 {
		n := min(len(b), chromeBufSize)
		if _, err := w.Write(b[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// appendJSONFloat appends x the way encoding/json encodes a finite
// float64: shortest 'f' form, or 'e' form below 1e-6 or from 1e21 up,
// with a two-digit negative exponent shortened (e-09 → e-9).
func appendJSONFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as a JSON string. Printable ASCII other
// than the quote, the backslash and the HTML-escaped <, > and & is
// copied as is; any other string goes through json.Marshal, which
// escapes exactly as the Encoder does.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
