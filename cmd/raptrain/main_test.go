package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadCounts runs the built command with non-positive -gpus
// and -iters values: each must exit nonzero and name the flag instead
// of running on one GPU or for the default iteration count.
// -gpus 1 -iters 1 still runs.
func TestRejectsBadCounts(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "raptrain")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"-gpus", "0"}, {"-gpus", "-3"}, {"-iters", "0"}, {"-iters", "-2"}} {
		var stdout, stderr strings.Builder
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) {
			t.Errorf("raptrain %v: want a nonzero exit, got %v", args, err)
		}
		if !strings.Contains(stderr.String(), args[0]+" must be at least 1") || stdout.Len() > 0 {
			t.Errorf("raptrain %v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
	if out, err := exec.Command(bin, "-gpus", "1", "-iters", "1").CombinedOutput(); err != nil {
		t.Errorf("raptrain -gpus 1 -iters 1: %v\n%s", err, out)
	}
}
