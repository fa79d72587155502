package dlrm

import (
	"testing"

	"rap/internal/gpusim"
)

// BenchmarkHybridStep measures one real hybrid-parallel training step
// (4 workers, small model, 128-sample global batch).
func BenchmarkHybridStep(b *testing.B) {
	cfg := smallConfig(8, 32)
	pl := PlaceTables(cfg.TableSizes, 4)
	tr, err := NewHybridTrainer(cfg, pl, 1)
	if err != nil {
		b.Fatal(err)
	}
	dense, sparse, labels := randomInputs(cfg, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(dense, sparse, labels, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterationSim measures simulating one full 8-GPU training
// iteration.
func BenchmarkIterationSim(b *testing.B) {
	sizes := sizes26()
	cfg := TerabyteConfig(sizes, 4096)
	pl := PlaceTables(sizes, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := gpusim.NewSim(gpusim.ClusterConfig{NumGPUs: 8})
		if _, err := addIteration(cfg, sim, pl, 0, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
