package trace

import (
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"rap/internal/gpusim"
)

func result(t *testing.T) *gpusim.Result {
	t.Helper()
	s := gpusim.NewSim(gpusim.ClusterConfig{NumGPUs: 2})
	a := s.AddKernel(0, gpusim.Kernel{Name: "train_k", Work: 50, LaunchOverhead: -1,
		Demand: gpusim.Demand{SM: 0.8, MemBW: 0.2}, Tag: "train"})
	s.AddKernel(0, gpusim.Kernel{Name: "pre_k", Work: 30, LaunchOverhead: -1,
		Demand: gpusim.Demand{SM: 0.1, MemBW: 0.3}, Tag: "preproc"}, gpusim.WithDeps(a))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteUtilCSV(t *testing.T) {
	res := result(t)
	var sb strings.Builder
	if err := WriteUtilCSV(&sb, res, 0, 10); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "t_us,sm,membw" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) < 8 {
		t.Fatalf("too few samples: %d", len(lines))
	}
	// A NaN period writes only the header (UtilSeries used to panic on it).
	sb.Reset()
	if err := WriteUtilCSV(&sb, res, 0, math.NaN()); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "t_us,sm,membw\n" {
		t.Fatalf("NaN period wrote %q", got)
	}
}

func TestWriteOpsCSV(t *testing.T) {
	res := result(t)
	var sb strings.Builder
	if err := WriteOpsCSV(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "train_k,train,0") || !strings.Contains(out, "pre_k,preproc,0") {
		t.Fatalf("ops CSV missing rows:\n%s", out)
	}
	// Sorted by start: train before pre.
	if strings.Index(out, "train_k") > strings.Index(out, "pre_k") {
		t.Fatal("ops not sorted by start")
	}
}

func TestSummarize(t *testing.T) {
	res := result(t)
	s := Summarize(res, 0, 0)
	if s.GPUUtil <= 0.99 {
		t.Fatalf("GPU util = %f, want ~1 (always busy)", s.GPUUtil)
	}
	// Mean SM = (0.8*50 + 0.1*30)/80.
	want := (0.8*50 + 0.1*30) / 80
	if diff := s.SMUtil - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("SM util = %f, want %f", s.SMUtil, want)
	}
	if s.TagSM["train"] <= s.TagSM["preproc"] {
		t.Fatalf("tag attribution wrong: %+v", s.TagSM)
	}
	// Idle GPU 1.
	s1 := Summarize(res, 1, 0)
	if s1.GPUUtil != 0 || s1.SMUtil != 0 {
		t.Fatalf("idle GPU summary: %+v", s1)
	}
}

func TestMeanSummary(t *testing.T) {
	res := result(t)
	m := MeanSummary(res, 2, 0)
	s0 := Summarize(res, 0, 0)
	if diff := m.GPUUtil - s0.GPUUtil/2; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean GPU util = %f", m.GPUUtil)
	}
	if m.TagSM["train"] != s0.TagSM["train"]/2 {
		t.Fatal("mean tag attribution wrong")
	}
}

func TestSummarizeZeroWindow(t *testing.T) {
	res := &gpusim.Result{Util: [][]gpusim.UtilSegment{nil}}
	s := Summarize(res, 0, 0)
	if s.GPUUtil != 0 || s.SMUtil != 0 {
		t.Fatal("empty result summary should be zero")
	}
}

func TestTurningPoint(t *testing.T) {
	ys := []float64{100, 101, 103, 112, 140}
	if got := TurningPoint(ys, 0.10); got != 3 {
		t.Fatalf("turning point = %d, want 3", got)
	}
	if got := TurningPoint(ys, 0.50); got != -1 {
		t.Fatalf("no turning point expected, got %d", got)
	}
	if got := TurningPoint(nil, 0.1); got != -1 {
		t.Fatalf("empty series: %d", got)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	res := result(t)
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, res, 2); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0]["name"] != "train_k" || events[0]["ph"] != "X" {
		t.Fatalf("first event = %v", events[0])
	}
	if events[1]["cat"] != "preproc" || events[1]["tid"].(float64) != 1 {
		t.Fatalf("second event = %v", events[1])
	}
	// Durations are positive and rows sorted by start.
	if events[0]["ts"].(float64) > events[1]["ts"].(float64) {
		t.Fatal("events not time-sorted")
	}
}

// failWriter errors after n bytes, to exercise CSV error paths.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, io.ErrClosedPipe
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, io.ErrClosedPipe
	}
	return n, nil
}

func TestCSVWriteErrors(t *testing.T) {
	res := result(t)
	if err := WriteUtilCSV(&failWriter{left: 0}, res, 0, 10); err == nil {
		t.Fatal("header write error swallowed")
	}
	if err := WriteUtilCSV(&failWriter{left: 15}, res, 0, 10); err == nil {
		t.Fatal("row write error swallowed")
	}
	if err := WriteOpsCSV(&failWriter{left: 0}, res); err == nil {
		t.Fatal("ops header error swallowed")
	}
	if err := WriteOpsCSV(&failWriter{left: 30}, res); err == nil {
		t.Fatal("ops row error swallowed")
	}
	if err := WriteChromeTrace(&failWriter{left: 0}, res, 2); err == nil {
		t.Fatal("chrome trace error swallowed")
	}
}
