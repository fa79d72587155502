package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// definition reads the metric names and units BENCHMARK.json promises.
func definition(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, harness has %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, harness has %v", names, have)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, kind string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: %s missing", kind, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", kind, name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v is not finite", kind, name, m.Value)
		}
	}
}

// TestWorkloadsQuick runs every workload at -quick size, untraced and
// traced with the same seed, and checks the printed metric sets, the
// correctness checks and that everything deterministic repeats.
func TestWorkloadsQuick(t *testing.T) {
	endToEnd, perLayer := definition(t)
	for name := range workloads {
		name := name
		t.Run(name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.json")
			plain, err := runBench(options{workload: name, seed: 1, quick: true})
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runBench(options{workload: name, seed: 1, quick: true, trace: true, spans: spans})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("trace=%v: %d of %d checks failed: %v", r.Trace, r.Failed, r.Attempted, r.Errors)
				}
			}
			checkMetrics(t, "end-to-end", plain.EndToEnd, endToEnd)
			checkMetrics(t, "per-layer", traced.PerLayer, perLayer)
			for name, m := range plain.EndToEnd {
				if !(m.Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
				}
			}

			if plain.InputDigest != traced.InputDigest {
				t.Errorf("input digests differ across same-seed runs: %s vs %s", plain.InputDigest, traced.InputDigest)
			}
			if plain.SimDigest != traced.SimDigest {
				t.Errorf("simulated metrics differ across same-seed runs: %v vs %v", plain.EndToEnd, traced.EndToEnd)
			}
			if name != "fleet" {
				if got := traced.PerLayer["rap.replay_match_frac"].Value; got != 1 {
					t.Errorf("rap.replay_match_frac = %v, want 1", got)
				}
			}
			raw, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct{ Spans []span }
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
				t.Fatalf("spans file holds no spans (err %v)", err)
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{Better: "lower", Bound: 0.10}
	higher := bound{Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		a, b []float64
		bd   bound
		want string
	}{
		{[]float64{100, 101, 99, 100, 100}, []float64{101, 100, 102, 101, 100}, lower, "unchanged"},
		{[]float64{100, 101, 99, 100, 100}, []float64{120, 121, 119, 120, 120}, lower, "regressed"},
		{[]float64{100, 101, 99, 100, 100}, []float64{80, 81, 79, 80, 80}, lower, "improved"},
		{[]float64{100, 101, 99, 100, 100}, []float64{120, 121, 119, 120, 120}, higher, "improved"},
		{[]float64{60, 80, 100, 120, 150}, []float64{120, 121, 119, 120, 120}, lower, "unresolved"},
		{[]float64{100, 150, 90, 130, 100}, []float64{80, 81, 79, 80, 80}, lower, "improved"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.bd); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.a, c.b, c.bd.Better, got, c.want)
		}
	}
}
