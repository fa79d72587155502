package gpusim

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// goldenPins are the sha256 digests of the golden files as committed
// with the seed corpus. The golden tests compare simulator output to
// these files; this test pins the files themselves, so a regeneration
// that silently rewrites them (instead of fixing the regression that
// moved the output) fails loudly.
var goldenPins = []struct {
	name string
	sum  string
}{
	{"golden_digests_amd64.json", "55ccd9896d10807974dc3cdef695189afd5564162589ce6cff27994fc654d18f"},
}

func TestGoldenFilesPinnedToSeed(t *testing.T) {
	for _, pin := range goldenPins {
		b, err := os.ReadFile(filepath.Join("testdata", pin.name))
		if err != nil {
			t.Errorf("reading %s: %v", pin.name, err)
			continue
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != pin.sum {
			t.Errorf("%s drifted from the seed corpus: sha256 %s, want %s — do not regenerate goldens; fix the regression that moved the output", pin.name, got, pin.sum)
		}
	}
}
