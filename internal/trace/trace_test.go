package trace

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"rap/internal/gpusim"
)

func result(t *testing.T) *gpusim.Result {
	t.Helper()
	s := gpusim.NewSim(gpusim.ClusterConfig{NumGPUs: 2, Timelines: true})
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
}

// TestSummarizeZeroWindow: results with nothing to summarize yield the
// zero summary.
func TestSummarizeZeroWindow(t *testing.T) {
	for _, c := range []struct {
		name string
		res  *gpusim.Result
		g    int
	}{
		{"empty window", &gpusim.Result{Util: [][]gpusim.UtilSegment{nil}}, 0},
		{"nil result", nil, 0},
		{"GPU out of range", result(t), 5},
	} {
		if s := Summarize(c.res, c.g, 0); s != (UtilSummary{}) {
			t.Errorf("%s: summary %+v, want zero", c.name, s)
		}
	}
	if s := MeanSummary(nil, 2, 0); s != (UtilSummary{}) {
		t.Errorf("nil result: mean summary %+v, want zero", s)
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

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestCSVWriteErrors: a failing writer surfaces from WriteChromeTrace.
func TestCSVWriteErrors(t *testing.T) {
	if err := WriteChromeTrace(failWriter{}, result(t), 2); err == nil {
		t.Fatal("chrome trace error swallowed")
	}
}
