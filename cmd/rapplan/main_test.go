package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadGPUCount runs the built command with non-positive
// -gpus values: each must exit nonzero and name the flag instead of
// planning for one GPU. -gpus 1 still plans.
func TestRejectsBadGPUCount(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rapplan")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"-gpus", "0"}, {"-gpus", "-3"}} {
		var stdout, stderr strings.Builder
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) {
			t.Errorf("rapplan %v: want a nonzero exit, got %v", args, err)
		}
		if !strings.Contains(stderr.String(), "-gpus must be at least 1") || stdout.Len() > 0 {
			t.Errorf("rapplan %v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
	if out, err := exec.Command(bin, "-gpus", "1").CombinedOutput(); err != nil {
		t.Errorf("rapplan -gpus 1: %v\n%s", err, out)
	}
}
