package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rap/internal/gpusim"
	"rap/internal/rap"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chromeResult builds a small but representative timeline: training and
// preprocessing kernels on two GPUs, a cross-GPU transfer, a host copy,
// CPU work, and a zero-width barrier that the trace must drop.
func chromeResult(t *testing.T) *gpusim.Result {
	t.Helper()
	s := gpusim.NewSim(gpusim.ClusterConfig{NumGPUs: 2})
	tr0 := s.AddKernel(0, gpusim.Kernel{Name: "train_fwd", Work: 50, LaunchOverhead: -1,
		Demand: gpusim.Demand{SM: 0.8, MemBW: 0.2}, Tag: "train"})
	s.AddKernel(0, gpusim.Kernel{Name: "pre_fillnull", Work: 30, LaunchOverhead: -1,
		Demand: gpusim.Demand{SM: 0.1, MemBW: 0.3}, Tag: "preproc"}, gpusim.WithDeps(tr0))
	tr1 := s.AddKernel(1, gpusim.Kernel{Name: "train_fwd", Work: 40, LaunchOverhead: -1,
		Demand: gpusim.Demand{SM: 0.7, MemBW: 0.2}, Tag: "train"})
	s.AddComm("a2a", 0, 1, 1e6, gpusim.WithDeps(tr0))
	s.AddHostCopy("h2d", 1, 1e5, gpusim.WithDeps(tr1))
	s.AddCPU("load_batch", 25, 1)
	s.AddBarrier("iter_end", gpusim.WithDeps(tr0, tr1))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChromeTraceGolden pins the rendered trace byte for byte. The
// simulator is deterministic, so any diff here is a real behavior
// change; regenerate deliberately with `go test ./internal/trace
// -run ChromeTraceGolden -update`.
func TestChromeTraceGolden(t *testing.T) {
	res := chromeResult(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, res, 2); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceStable: two renders of the same result are identical.
func TestChromeTraceStable(t *testing.T) {
	res := chromeResult(t)
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, res, 2); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, res, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("back-to-back renders differ")
	}
}

// TestChromeTraceRoundTrip: the emitted JSON parses and reproduces every
// visible op's name, timestamps, category, and process/thread mapping.
func TestChromeTraceRoundTrip(t *testing.T) {
	res := chromeResult(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, res, 2); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	// Expected: every op with positive width, in (start, op ID) order.
	var visible []gpusim.OpResult
	for _, o := range res.Ops {
		if o.End > o.Start {
			visible = append(visible, o)
		}
	}
	sort.SliceStable(visible, func(i, j int) bool { return visible[i].Start < visible[j].Start })
	if len(visible) == 0 {
		t.Fatal("fixture produced no visible ops")
	}
	if len(events) != len(visible) {
		t.Fatalf("events = %d, visible ops = %d", len(events), len(visible))
	}
	for i, o := range visible {
		e := events[i]
		if e.Name != o.Name || e.Cat != o.Tag || e.Ph != "X" {
			t.Fatalf("event %d = %+v, op = %+v", i, e, o)
		}
		if e.Ts != o.Start || e.Dur != o.End-o.Start {
			t.Fatalf("event %d timestamps %+v do not round-trip op %+v", i, e, o)
		}
		wantPID := o.GPU
		if wantPID < 0 {
			wantPID = 2 // host row sits after the GPUs
		}
		if e.PID != wantPID || e.TID != tidFor(o.Tag) {
			t.Fatalf("event %d rows %+v do not match op %+v", i, e, o)
		}
	}
}

// chromeEvent is one event as encoding/json sees it, for the oracle.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  //rap:unit us
	Dur  float64           `json:"dur"` //rap:unit us
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTraceJSON is the reflection-based renderer WriteChromeTrace
// replaced: copy the ops, sort.SliceStable them by start, build the
// event list, encode it in one Write. It is the byte-identity oracle.
func writeChromeTraceJSON(w io.Writer, res *gpusim.Result, numGPUs int) error {
	ops := append([]gpusim.OpResult(nil), res.Ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	events := make([]chromeEvent, 0, len(ops))
	for _, o := range ops {
		if o.End <= o.Start {
			continue
		}
		pid := o.GPU
		if pid < 0 {
			pid = numGPUs
		}
		events = append(events, chromeEvent{
			Name: o.Name,
			Cat:  o.Tag,
			Ph:   "X",
			Ts:   o.Start,
			Dur:  o.End - o.Start,
			PID:  pid,
			TID:  tidFor(o.Tag),
		})
	}
	return json.NewEncoder(w).Encode(events)
}

// realTrace is a 12-iteration run of a Terabyte plan, replanned for a
// shifted list length, as `raptrain -trace` and the end-to-end
// benchmark render it.
type realTrace struct {
	plan, gpus int
	shift      float64
}

func (c realTrace) String() string {
	return fmt.Sprintf("plan%d_%dgpu_shift%g", c.plan, c.gpus, c.shift)
}

// realTraceCache holds each simulated run; the tests using it run
// sequentially.
var realTraceCache = map[string]*gpusim.Result{}

// run simulates c for iters iterations, once per process.
func (c realTrace) run(tb testing.TB, iters int) *gpusim.Result {
	tb.Helper()
	key := fmt.Sprintf("%v/%d", c, iters)
	if res, ok := realTraceCache[key]; ok {
		return res
	}
	w, err := rap.NewWorkload(rap.Terabyte, c.plan, 4096, 1)
	if err != nil {
		tb.Fatal(err)
	}
	f := rap.New(w, gpusim.ClusterConfig{NumGPUs: c.gpus, HostCores: 48})
	if _, err := f.BuildPlan(rap.BuildOptions{}); err != nil {
		tb.Fatal(err)
	}
	p, err := f.AdaptToShift(c.shift, rap.BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	stats, err := f.Execute(p, iters)
	if err != nil {
		tb.Fatal(err)
	}
	realTraceCache[key] = stats.Result
	return stats.Result
}

// wideTrace is the `wide` benchmark workload's job: plan 3 on 4 GPUs.
var wideTrace = realTrace{plan: 3, gpus: 4, shift: 4.5}

// TestChromeTraceMatchesEncodingJSON: on the three benchmark plans at
// three shifts each, the streamed trace is the oracle's, byte for byte.
func TestChromeTraceMatchesEncodingJSON(t *testing.T) {
	for _, c := range []struct{ plan, gpus int }{{1, 8}, {2, 4}, {3, 4}} {
		for _, shift := range []float64{1.5, 4.5, 6.0} {
			rc := realTrace{c.plan, c.gpus, shift}
			t.Run(rc.String(), func(t *testing.T) {
				res := rc.run(t, 12)
				var got, want bytes.Buffer
				if err := WriteChromeTrace(&got, res, rc.gpus); err != nil {
					t.Fatal(err)
				}
				if err := writeChromeTraceJSON(&want, res, rc.gpus); err != nil {
					t.Fatal(err)
				}
				if got.Len() < 1<<20 {
					t.Fatalf("trace of %d bytes; a real run renders megabytes", got.Len())
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("trace differs from encoding/json at byte %d of %d", firstDiff(got.Bytes(), want.Bytes()), want.Len())
				}
			})
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// chromeFuzzNames covers the string encoder's fast path and every
// escape encoding/json applies: quotes, backslashes, HTML characters,
// control bytes, DEL, invalid UTF-8 and the JS line separators.
var chromeFuzzNames = []string{
	"train_fwd", "", "a\"b", `c\d`, "<x", "y>", "&z", "tab\there", "nl\n", "\x00\x01\x1f",
	"del\x7f", "bad\xff\xfeutf8", "ls\u2028ps\u2029", "é ü 漢", " ~!#$%'()*+-./:;=?@[]^_`{|}",
}

// chromeFuzzTags are the row tags plus ones that need escaping.
var chromeFuzzTags = []string{"train", "preproc", "comm", "hostcopy", "cpu", "", "other", "<tag>", "q\"t"}

// chromeFuzzFloats covers encoding/json's float formats: both sides of
// the 1e-6 and 1e21 switches to exponent form, one- and three-digit
// exponents, negative zero, subnormals and long shortest forms.
var chromeFuzzFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 2.25, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 5e-324,
	2.2250738585072014e-308, 1e-300, 123456.789, 0.1 + 0.2, 1e20, 999999999999999999999,
	1e21, 1.5e22, 1e300, math.MaxFloat64, -1e21, -3e-8, 1.0 / 3, 12345678901234567,
}

// randomChromeResult draws n ops on numGPUs GPUs. Starts and durations
// come mostly from small pools, so ties and repeats are common.
func randomChromeResult(rng *rand.Rand, n, numGPUs int, nonFinite bool) *gpusim.Result {
	starts := make([]float64, 1+rng.Intn(8))
	durs := make([]float64, 1+rng.Intn(8))
	for _, pool := range [][]float64{starts, durs} {
		for i := range pool {
			pool[i] = chromeFloat(rng)
		}
	}
	res := &gpusim.Result{Ops: make([]gpusim.OpResult, n)}
	for i := range res.Ops {
		o := &res.Ops[i]
		o.ID = gpusim.OpID(i)
		o.Name = chromeFuzzNames[rng.Intn(len(chromeFuzzNames))]
		o.Tag = chromeFuzzTags[rng.Intn(len(chromeFuzzTags))]
		o.GPU = rng.Intn(numGPUs+2) - 2 // -2 and -1 are host ops
		if rng.Intn(4) == 0 {
			o.Start = chromeFloat(rng)
		} else {
			o.Start = starts[rng.Intn(len(starts))]
		}
		switch rng.Intn(8) {
		case 0: // zero width
			o.End = o.Start
		case 1: // negative width
			o.End = o.Start - math.Abs(chromeFloat(rng))
		case 2: // an infinite start on a skipped op
			o.Start = math.Inf(1 - 2*rng.Intn(2))
			o.End = o.Start
		default:
			o.End = o.Start + math.Abs(durs[rng.Intn(len(durs))])
		}
		if nonFinite && rng.Intn(n) == 0 {
			switch rng.Intn(3) {
			case 0:
				o.Start = math.NaN()
			case 1:
				o.End = math.Inf(1)
			default:
				o.Start, o.End = math.Inf(-1), 0
			}
		}
	}
	return res
}

func chromeFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return chromeFuzzFloats[rng.Intn(len(chromeFuzzFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52) // any finite bits
	default:
		return float64(rng.Intn(1_000_000)) / 1000
	}
}

// FuzzWriteChromeTrace compares WriteChromeTrace with the encoding/json
// oracle on random op lists. Where the oracle fails on a non-finite
// value the writer must fail too, without writing. The seed corpus runs
// in tier-1; a long run is opt-in:
// `go test -run '^$' -fuzz FuzzWriteChromeTrace -fuzztime 60s ./internal/trace`.
func FuzzWriteChromeTrace(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint16(seed*37), uint8(seed%5), seed%3 == 0)
	}
	f.Add(int64(100), uint16(0), uint8(2), false)
	f.Add(int64(101), uint16(3000), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, gpus uint8, nonFinite bool) {
		numGPUs := 1 + int(gpus)%8
		res := randomChromeResult(rand.New(rand.NewSource(seed)), int(n)%4096, numGPUs, nonFinite)
		var want bytes.Buffer
		wantErr := writeChromeTraceJSON(&want, res, numGPUs)
		var got countingWriter
		err := WriteChromeTrace(&got, res, numGPUs)
		if wantErr != nil {
			if err == nil || got.calls != 0 {
				t.Fatalf("oracle failed with %v; writer returned %v after %d writes", wantErr, err, got.calls)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trace differs from encoding/json at byte %d:\ngot:  %.300s\nwant: %.300s",
				firstDiff(got.Bytes(), want.Bytes()), got.Bytes(), want.Bytes())
		}
		if got.largest > chromeBufSize {
			t.Fatalf("a write of %d bytes exceeds the %d-byte buffer", got.largest, chromeBufSize)
		}
	})
}

// countingWriter records its writes, and fails the call numbered failAt
// (from 1) if failAt > 0.
type countingWriter struct {
	bytes.Buffer
	calls, largest, failAt int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	c.largest = max(c.largest, len(p))
	if c.calls == c.failAt {
		return 0, io.ErrShortWrite
	}
	return c.Buffer.Write(p)
}

// TestChromeTraceRejectsBadInput: every input the trace cannot render
// faithfully is an error, returned before the first Write.
func TestChromeTraceRejectsBadInput(t *testing.T) {
	op := func(gpu int, start, end float64) gpusim.OpResult {
		return gpusim.OpResult{Name: "k", Tag: "train", GPU: gpu, Start: start, End: end}
	}
	ok := []gpusim.OpResult{op(0, 0, 5), op(-1, 1, 2)}
	for _, c := range []struct {
		name    string
		res     *gpusim.Result
		numGPUs int
	}{
		{"nil result", nil, 2},
		{"zero GPUs", &gpusim.Result{Ops: ok}, 0},
		{"negative GPUs", &gpusim.Result{Ops: ok}, -3},
		{"op beyond the GPUs", &gpusim.Result{Ops: append(ok, op(2, 0, 1))}, 2},
		{"NaN start", &gpusim.Result{Ops: append(ok, op(0, math.NaN(), 1))}, 2},
		{"NaN end", &gpusim.Result{Ops: append(ok, op(1, 0, math.NaN()))}, 2},
		{"infinite end", &gpusim.Result{Ops: append(ok, op(0, 0, math.Inf(1)))}, 2},
		{"infinite start", &gpusim.Result{Ops: append(ok, op(0, math.Inf(-1), 1))}, 2},
		{"overflowing duration", &gpusim.Result{Ops: append(ok, op(0, -math.MaxFloat64, math.MaxFloat64))}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			var w countingWriter
			if err := WriteChromeTrace(&w, c.res, c.numGPUs); err == nil {
				t.Fatalf("no error; wrote %q", w.Bytes())
			}
			if w.calls != 0 {
				t.Fatalf("%d writes before the error", w.calls)
			}
		})
	}

	// Skipped ops are not rendered, so neither their GPU nor their
	// infinite timestamps are errors.
	skipped := &gpusim.Result{Ops: append(ok, op(9, 3, 3), op(0, math.Inf(1), math.Inf(1)), op(0, 2, math.Inf(-1)))}
	var got, want bytes.Buffer
	if err := WriteChromeTrace(&got, skipped, 2); err != nil {
		t.Fatal(err)
	}
	if err := writeChromeTraceJSON(&want, skipped, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("got %s, want %s", got.Bytes(), want.Bytes())
	}
}

// TestChromeTraceEmpty: with no visible op the trace is an empty array.
func TestChromeTraceEmpty(t *testing.T) {
	for _, ops := range [][]gpusim.OpResult{nil, {{Name: "barrier", Start: 4, End: 4}}} {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, &gpusim.Result{Ops: ops}, 1); err != nil {
			t.Fatal(err)
		}
		if buf.String() != "[]\n" {
			t.Fatalf("empty trace = %q", buf.String())
		}
	}
}

// TestChromeTraceStreams: a real trace reaches the writer in several
// writes of at most chromeBufSize bytes, and the first failed write
// ends the render with its error.
func TestChromeTraceStreams(t *testing.T) {
	res := wideTrace.run(t, 12)
	var all countingWriter
	if err := WriteChromeTrace(&all, res, wideTrace.gpus); err != nil {
		t.Fatal(err)
	}
	if all.calls < 2 || all.largest > chromeBufSize {
		t.Fatalf("%d bytes in %d writes, largest %d; want several of at most %d",
			all.Len(), all.calls, all.largest, chromeBufSize)
	}

	failing := countingWriter{failAt: 2}
	if err := WriteChromeTrace(&failing, res, wideTrace.gpus); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("error = %v, want the writer's", err)
	}
	if failing.calls != 2 {
		t.Fatalf("%d writes; the render must stop at the failed second", failing.calls)
	}

	// One event larger than the buffer still arrives in bounded writes.
	long := &gpusim.Result{Ops: []gpusim.OpResult{{Name: strings.Repeat("k", 3*chromeBufSize), Tag: "train", Start: 0, End: 1}}}
	var big countingWriter
	if err := WriteChromeTrace(&big, long, 1); err != nil {
		t.Fatal(err)
	}
	if big.largest > chromeBufSize || big.Len() < 3*chromeBufSize {
		t.Fatalf("%d bytes, largest write %d", big.Len(), big.largest)
	}
}

// TestChromeTraceAllocsFlat: the render holds no copy of the trace, so
// doubling the simulated iterations adds at most a few allocations.
func TestChromeTraceAllocsFlat(t *testing.T) {
	c := realTrace{plan: 1, gpus: 2, shift: 4.5}
	allocs := func(iters int) float64 {
		res := c.run(t, iters)
		return testing.AllocsPerRun(3, func() {
			if err := WriteChromeTrace(io.Discard, res, c.gpus); err != nil {
				t.Fatal(err)
			}
		})
	}
	a12, a24 := allocs(12), allocs(24)
	if a24 > a12+8 {
		t.Fatalf("%v allocations at 12 iterations, %v at 24", a12, a24)
	}
}

// TestChromeTraceMemoSizedByOps: the render's row memo is sized from
// the GPUs the visible ops use, so a huge numGPUs costs nothing.
func TestChromeTraceMemoSizedByOps(t *testing.T) {
	res := &gpusim.Result{Ops: []gpusim.OpResult{
		{Name: "k", Tag: "train", GPU: 0, Start: 0, End: 2},
		{Name: "p", Tag: "preproc", GPU: 1, Start: 1, End: 3},
		{Name: "c", Tag: "cpu", GPU: -1, Start: 0, End: 1},
	}}
	allocs := func(numGPUs int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := WriteChromeTrace(io.Discard, res, numGPUs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(2), allocs(math.MaxInt32); many > few {
		t.Fatalf("%v allocations at 2 GPUs, %v at math.MaxInt32", few, many)
	}
}

// lightTrace is the `light` benchmark workload's job: plan 1 on 8 GPUs.
var lightTrace = realTrace{plan: 1, gpus: 8, shift: 4.5}

// BenchmarkWriteChromeTrace renders the shifted 12-iteration jobs of
// `light` (plan 1 on 8 GPUs, about 12k ops) and `wide` (plan 3 on 4
// GPUs, about 41k ops). ns/event is per rendered (visible) op.
func BenchmarkWriteChromeTrace(b *testing.B) {
	for _, c := range []struct {
		name string
		rc   realTrace
	}{{"light", lightTrace}, {"wide", wideTrace}} {
		b.Run(c.name, func(b *testing.B) {
			res := c.rc.run(b, 12)
			events := 0
			for _, o := range res.Ops {
				if o.End > o.Start {
					events++
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := WriteChromeTrace(io.Discard, res, c.rc.gpus); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}
