package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
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

// startKey orders ops by start time; i indexes res.Ops.
type startKey struct {
	start float64 //rap:unit us
	i     int32
}

// WriteChromeTrace renders the simulation result as a Chrome trace-event
// JSON array of "complete" events (ph=X, timestamps and durations in
// microseconds): one process per GPU (host ops, GPU < 0, on pid
// numGPUs), one thread row per op class, sorted by start time. Ops of
// zero or negative width are left out. Load the file in chrome://tracing
// or Perfetto to inspect the co-running timeline visually.
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
	keys := make([]startKey, len(res.Ops))
	for i := range res.Ops {
		o := &res.Ops[i]
		keys[i] = startKey{o.Start, int32(i)}
		if o.End <= o.Start {
			continue
		}
		if o.GPU >= numGPUs {
			return fmt.Errorf("trace: op %d (%q) on GPU %d of %d", i, o.Name, o.GPU, numGPUs)
		}
		if !finite(o.Start) || !finite(o.End-o.Start) {
			return fmt.Errorf("trace: op %d (%q) spans [%g, %g], not finite", i, o.Name, o.Start, o.End)
		}
	}
	// The comparator is sort.Slice's `Start <` less function written as a
	// three-way compare: the same pdqsort then makes the same swaps, so
	// ops that tie on start keep the order the golden pins.
	slices.SortFunc(keys, func(a, b startKey) int {
		if a.start < b.start {
			return -1
		}
		if b.start < a.start {
			return 1
		}
		return 0
	})

	// Sorted starts put equal timestamps side by side, so ts keeps the
	// last one's text; durations repeat across the whole run, so each
	// distinct one is formatted once into durText.
	var (
		ts      []byte
		tsBits  uint64
		durText []byte
		durAt   = map[uint64][2]int32{}
	)
	buf := make([]byte, 0, chromeBufSize)
	buf = append(buf, '[')
	first := true
	for _, key := range keys {
		o := &res.Ops[key.i]
		if o.End <= o.Start {
			continue // barriers and zero-width ops clutter the view
		}
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, `{"name":`...)
		buf = appendJSONString(buf, o.Name)
		buf = append(buf, `,"cat":`...)
		buf = appendJSONString(buf, o.Tag)
		buf = append(buf, `,"ph":"X","ts":`...)
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
		pid := o.GPU
		if pid < 0 {
			pid = numGPUs // host row
		}
		buf = strconv.AppendInt(buf, int64(pid), 10)
		buf = append(buf, `,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tidFor(o.Tag)), 10)
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
