package lint

import (
	"strings"
	"testing"
)

// crossPackageCase is the shared shape of the four v4 blindness proofs:
// a dependency package contributes concurrency facts, the caller
// package misuses them, and only the joint whole-program view reports.
// Analyzing the caller without the dependency's sources loaded must
// stay silent (the facts are invisible, and the analyzers are designed
// to fail toward silence), as must the dependency package itself (the
// dependency-closure rule: a package's findings may depend only on its
// dependency closure, never on its dependents).
func runCrossPackage(t *testing.T, analyzer *Analyzer, lib, libPath, caller, callerPath string) {
	t.Helper()

	// Caller alone: the dependency is type-checked through the importer
	// but its sources are outside the Program, so no facts flow.
	alonePkgs, _ := loadProgram(t, []fixtureSpec{
		{dir: lib, path: libPath},
		{dir: caller, path: callerPath},
	})
	aloneProg := NewProgram([]*Package{alonePkgs[1]})
	var alone []Finding
	aloneProg.RunPackage(alonePkgs[1], []*Analyzer{analyzer}, &alone)
	if len(alone) != 0 {
		t.Fatalf("caller analyzed without the dependency's sources must be silent, got %v", alone)
	}

	// Joint view: facts flow dependency -> dependent; the caller
	// reports, the dependency stays clean.
	pkgs, wants := loadProgram(t, []fixtureSpec{
		{dir: lib, path: libPath},
		{dir: caller, path: callerPath},
	})
	if len(wants) == 0 {
		t.Fatal("fixture carries no want expectations")
	}
	prog := NewProgram(pkgs)
	var libFindings []Finding
	prog.RunPackage(pkgs[0], []*Analyzer{analyzer}, &libFindings)
	if len(libFindings) != 0 {
		t.Fatalf("the dependency package must stay clean (it cannot see its dependents), got %v", libFindings)
	}
	var findings []Finding
	prog.RunPackage(pkgs[1], []*Analyzer{analyzer}, &findings)
	SortFindings(findings)
	matchWants(t, findings, wants)
}

// TestLockOrderCrossPackage: the dependency acquires MuA before MuB;
// the caller reverses the order. Each package's acquisition graph is
// acyclic on its own.
func TestLockOrderCrossPackage(t *testing.T) {
	runCrossPackage(t, LockOrder,
		"lockorder_lib", "rap/internal/locklib",
		"lockorder_caller", "rap/internal/lockcaller")
}

// TestAtomicPlainCrossPackage: the dependency only ever touches the
// counter atomically; the caller's plain load is only wrong given that
// fact.
func TestAtomicPlainCrossPackage(t *testing.T) {
	runCrossPackage(t, AtomicPlain,
		"atomicplain_lib", "rap/internal/atomlib",
		"atomicplain_caller", "rap/internal/atomcaller")
}

// TestWGCheckCrossPackage: the dependency Adds on its WaitGroup
// parameter; spawning it with `go` races the Add against the caller's
// Wait. The same call made synchronously is fine.
func TestWGCheckCrossPackage(t *testing.T) {
	runCrossPackage(t, WGCheck,
		"wgcheck_lib", "rap/internal/wglib",
		"wgcheck_caller", "rap/internal/wgcaller")
}

// TestGoroutineLeakCrossPackage: the dependency sends on its channel
// parameter; spawning it on a channel nothing receives from leaks the
// goroutine. Pairing it with the dependency's receiver is fine.
func TestGoroutineLeakCrossPackage(t *testing.T) {
	runCrossPackage(t, GoroutineLeak,
		"goroutineleak_lib", "rap/internal/leaklib",
		"goroutineleak_caller", "rap/internal/leakcaller")
}

// TestLockOrderCycleMessage pins the example-path rendering: the
// finding must name both locks and point at the reverse acquisition.
func TestLockOrderCycleMessage(t *testing.T) {
	pkgs, _ := loadProgram(t, []fixtureSpec{
		{dir: "lockorder_lib", path: "rap/internal/locklib"},
		{dir: "lockorder_caller", path: "rap/internal/lockcaller"},
	})
	prog := NewProgram(pkgs)
	var findings []Finding
	prog.RunPackage(pkgs[1], []*Analyzer{LockOrder}, &findings)
	if len(findings) != 1 {
		t.Fatalf("want exactly one cycle finding, got %v", findings)
	}
	msg := findings[0].Message
	for _, part := range []string{"MuA", "MuB", "reverse order is taken at", "lib.go:"} {
		if !strings.Contains(msg, part) {
			t.Errorf("cycle message should contain %q, got: %s", part, msg)
		}
	}
}
