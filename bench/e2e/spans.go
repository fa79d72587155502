package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the run's clock origin; a job's root span has parent -1.
type span struct {
	Job    int    `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// AllocBytes is the heap allocated while the span was open, from
	// runtime.MemStats.TotalAlloc; -1 where it was not measured.
	AllocBytes int64 `json:"alloc_bytes"`

	allocOn bool
	alloc0  uint64
}

// recorder keeps every span of a traced run in memory; writeSpans
// serializes them once the run is over, so no file I/O lands inside a
// timed region.
type recorder struct {
	origin time.Time
	spans  []span
	jobs   map[int]*tracer
	order  []int
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), jobs: map[int]*tracer{}}
}

// job starts the tracer for job i; its root span is named "job".
func (r *recorder) job(i int) *tracer {
	t := &tracer{rec: r, job: i, counts: map[string]float64{}}
	r.jobs[i] = t
	r.order = append(r.order, i)
	t.root = t.begin("job")
	return t
}

// tracer records the spans and counters of one job. A nil tracer
// ignores every call, so untraced jobs run the same code with no
// clock reads or MemStats calls.
type tracer struct {
	rec    *recorder
	job    int
	root   int
	stack  []int
	counts map[string]float64
}

func (t *tracer) begin(name string) int { return t.open(name, false) }

// beginAlloc is begin plus a heap-allocation delta for the span.
// runtime.ReadMemStats stops the world, so only stage-level spans use
// it.
func (t *tracer) beginAlloc(name string) int { return t.open(name, true) }

func (t *tracer) open(name string, alloc bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	s := span{Job: t.job, ID: len(t.rec.spans), Parent: parent, Name: name, AllocBytes: -1}
	if alloc {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.allocOn, s.alloc0 = true, m.TotalAlloc
	}
	s.Start = int64(time.Since(t.rec.origin))
	t.rec.spans = append(t.rec.spans, s)
	t.stack = append(t.stack, s.ID)
	return s.ID
}

// end closes span id and any span opened inside it that an error path
// left open.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.rec.origin))
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		s := &t.rec.spans[top]
		s.End = now
		if top == id {
			if s.allocOn {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				s.AllocBytes = int64(m.TotalAlloc - s.alloc0)
			}
			return
		}
	}
}

// add accumulates a per-job counter.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// finish closes the job's root span.
func (t *tracer) finish() {
	if t != nil {
		t.end(t.root)
	}
}

// jobLayers is one traced job's spans reduced to per-name totals.
type jobLayers struct {
	totalNs map[string]int64 // summed span durations
	selfNs  map[string]int64 // summed durations minus child spans
	calls   map[string]int
	alloc   map[string]int64
	counts  map[string]float64
}

// layers reduces the spans of every traced job, in job order.
func (r *recorder) layers() []jobLayers {
	byJob := map[int]*jobLayers{}
	for _, i := range r.order {
		byJob[i] = &jobLayers{
			totalNs: map[string]int64{},
			selfNs:  map[string]int64{},
			calls:   map[string]int{},
			alloc:   map[string]int64{},
			counts:  r.jobs[i].counts,
		}
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range r.spans {
		jl := byJob[s.Job]
		d := s.End - s.Start
		jl.totalNs[s.Name] += d
		jl.selfNs[s.Name] += d - child[s.ID]
		jl.calls[s.Name]++
		if s.AllocBytes > 0 {
			jl.alloc[s.Name] += s.AllocBytes
		}
	}
	out := make([]jobLayers, 0, len(r.order))
	for _, i := range r.order {
		out = append(out, *byJob[i])
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func (r *recorder) writeSpans(path, workload string, seed int64) error {
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Clock    string `json:"clock"`
		Spans    []span `json:"spans"`
	}{workload, seed, "ns since the run's clock origin", r.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
