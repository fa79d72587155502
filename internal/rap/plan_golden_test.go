package rap

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rap/internal/gpusim"
)

var update = flag.Bool("update", false, "rewrite testdata/plan_golden.json from the current planner")

// goldenPlan is one pinned planner configuration, the digest of the
// ExecPlan BuildPlan (or AdaptToShift) returned for it, and the mapping
// search's counters in plain text. The counters are pinned apart from
// the digest so that a change to how much scoring the search does shows
// as a readable diff while the digest proves the plan itself is
// unchanged.
type goldenPlan struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Search string `json:"search"`
}

// searchCounters renders the mapping search's work: accepted moves,
// cost evaluations run and memo hits.
func searchCounters(p *ExecPlan) string {
	m := p.Mapping
	return fmt.Sprintf("moves=%d evals=%d hits=%d", m.Moves, m.CostEvals, m.CostCacheHits)
}

// planDigest hashes every planner output of an ExecPlan: the placement,
// the mapping (per-GPU items, comm bytes, moves), the probed capacities, every fusion plan (kernel names,
// element and scale bits, op ids, objective, nodes), every schedule
// (per-stage kernels, overflow, shards, predicted exposure), the per-GPU
// work and PredictedExposedUs. Floats print in Go's shortest exact
// form, so equal digests mean bit-identical values.
func planDigest(p *ExecPlan) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "placement %+v\n", p.Placement)
	m := p.Mapping
	fmt.Fprintf(h, "mapping %s moves=%d comm=%v\n", m.Strategy, m.Moves, m.CommBytes)
	for g, items := range m.PerGPU {
		for _, a := range items {
			fmt.Fprintf(h, "gpu %d graph %d %q %+v\n", g, a.Graph.ID, a.Graph.Name, a.Shape)
		}
	}
	for g, caps := range p.Capacities {
		fmt.Fprintf(h, "caps %d %+v\n", g, caps)
	}
	for g, fp := range p.Fusions {
		fmt.Fprintf(h, "fusion %d %+v\n", g, *fp)
	}
	for g, s := range p.Schedules {
		fmt.Fprintf(h, "schedule %d %+v\n", g, *s)
	}
	for g, w := range p.Work {
		if w.Schedule != p.Schedules[g] {
			return "", fmt.Errorf("gpu %d: work does not carry the plan's schedule", g)
		}
		fmt.Fprintf(h, "work %d comm=%v prep=%v cpuprep=%v cpupreproc=%v workers=%d\n",
			g, w.InputCommBytes, w.PrepBytes, w.CPUPrepUs, w.CPUPreprocUs, w.CPUWorkers)
	}
	fmt.Fprintf(h, "exposed %v\n", p.PredictedExposedUs)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// goldenPlans builds every pinned configuration: Kaggle plan 0 and
// Terabyte plans 1–3, each on 4 and 8 GPUs at batch 4096, as the base
// plan, the AdaptToShift replans for list lengths 1.5 and 6.0, and the
// four ablations (NoFusion, NoSharding, data-parallel mapping,
// NaiveSchedule).
func goldenPlans(t *testing.T) []goldenPlan {
	t.Helper()
	var out []goldenPlan
	for _, wl := range []struct {
		ds   Dataset
		plan int
	}{{Kaggle, 0}, {Terabyte, 1}, {Terabyte, 2}, {Terabyte, 3}} {
		for _, gpus := range []int{4, 8} {
			w := workload(t, wl.ds, wl.plan, 4096)
			f := New(w, gpusim.ClusterConfig{NumGPUs: gpus, HostCores: 48})
			prefix := fmt.Sprintf("%s/plan%d/gpus%d", wl.ds, wl.plan, gpus)
			add := func(name string, p *ExecPlan, err error) {
				if err != nil {
					t.Fatalf("%s/%s: %v", prefix, name, err)
				}
				d, err := planDigest(p)
				if err != nil {
					t.Fatalf("%s/%s: %v", prefix, name, err)
				}
				out = append(out, goldenPlan{Name: prefix + "/" + name, Digest: d, Search: searchCounters(p)})
			}
			for _, c := range []struct {
				name string
				opts BuildOptions
			}{
				{"base", BuildOptions{}},
				{"nofusion", BuildOptions{NoFusion: true}},
				{"nosharding", BuildOptions{NoSharding: true}},
				{"dp", BuildOptions{Strategy: MapDataParallel}},
				{"naive", BuildOptions{NaiveSchedule: true}},
			} {
				p, err := f.BuildPlan(c.opts)
				add(c.name, p, err)
			}
			for _, l := range []float64{1.5, 6.0} {
				p, err := f.AdaptToShift(l, BuildOptions{})
				add(fmt.Sprintf("shift%g", l), p, err)
			}
		}
	}
	return out
}

// TestPlanGolden pins the planner's output bit for bit on 56
// configurations. A change that is meant to leave plans alone must pass
// it with every digest untouched; one that changes how much scoring the
// search does may move only the `search` counters' evals and hits.
// Regenerate deliberately with
// `go test ./internal/rap -run PlanGolden -update`.
func TestPlanGolden(t *testing.T) {
	path := filepath.Join("testdata", "plan_golden.json")
	got := goldenPlans(t)
	if *update {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, g := range got {
			b, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	var want []goldenPlan
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("built %d configurations, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: plan digest %s search %q, golden %s search %q (%s)",
				want[i].Name, got[i].Digest, got[i].Search, want[i].Digest, want[i].Search, got[i].Name)
		}
	}
}
