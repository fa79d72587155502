package gpusim

import (
	"testing"

	"rap/internal/topo"
)

// Satellite back-compat pin: installing a flat topology — or explicitly
// clearing with nil — must leave every golden DAG's result digest
// bit-identical to a run with no SetTopology call at all. A flat
// install creates no fabric resources, so the dense resource layout,
// every demand vector, and therefore every float trajectory are
// byte-for-byte the pre-topology ones. The test replays the full
// 64-seed golden corpus rather than a sample, so any layout or demand
// drift shows up as a digest mismatch.

// runGoldenVariants runs one golden DAG three ways — untouched, with
// topo.Uniform(1, n) installed, and with an explicit nil install — and
// returns the three digests.
func runGoldenVariants(t *testing.T, seed int64) (plain, flat, nilTopo string) {
	t.Helper()
	run := func(install func(*Sim) error) string {
		s := buildGoldenDAG(seed)
		if install != nil {
			if err := install(s); err != nil {
				t.Fatalf("seed %d: SetTopology: %v", seed, err)
			}
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		return digestResult(res)
	}
	plain = run(nil)
	flat = run(func(s *Sim) error { return s.SetTopology(topo.Uniform(1, s.Config().NumGPUs)) })
	nilTopo = run(func(s *Sim) error { return s.SetTopology(nil) })
	return plain, flat, nilTopo
}

// TestGoldenDigestsFlatTopology pins the 64-seed golden corpus: a flat
// or nil topology is invisible in the results.
func TestGoldenDigestsFlatTopology(t *testing.T) {
	for seed := 0; seed < goldenSeeds; seed++ {
		plain, flat, nilTopo := runGoldenVariants(t, int64(seed))
		if flat != plain {
			t.Errorf("seed %d: flat-topology digest %s != plain %s", seed, flat[:12], plain[:12])
		}
		if nilTopo != plain {
			t.Errorf("seed %d: nil-topology digest %s != plain %s", seed, nilTopo[:12], plain[:12])
		}
	}
}
