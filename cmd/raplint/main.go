// raplint runs the project's domain-specific static analyzers over the
// module. Three analyzers, each local to one package: seededrand
// (global math/rand or the wall clock in internal packages) and floateq
// (exact float comparison) guard the determinism invariants;
// unusedignore keeps the //lint:ignore inventory honest. Each of the
// first two is kept by a mutant in scripts/mutants that only it catches
// (see internal/lint and DESIGN.md §6). Every run type-checks and
// analyzes every target package from source, one package at a time, so
// any pattern reports exactly what ./... reports for its packages.
//
// Usage:
//
//	go run ./cmd/raplint [flags] [packages]   # default ./...
//	go run ./cmd/raplint -list                # describe the analyzers
//
// Flags:
//
//	-json FILE   write a machine-readable report (findings + stats); "-" for stdout
//	-timing      print per-analyzer wall time to stderr
//
// Exit status: 0 clean, 1 findings, 2 usage, load or report-write
// error. Findings can be suppressed with `//lint:ignore <analyzer>
// <reason>` on or above the offending line. `//rap:deterministic` in a
// function's doc comment documents a deterministic entry point; no
// analyzer reads it.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"rap/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.String("json", "", "write a JSON report to this file (\"-\" for stdout)")
	timing := flag.Bool("timing", false, "print per-analyzer wall time to stderr")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	findings, stats, err := lint.Run(".", flag.Args(), analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raplint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if err := writeReport(*jsonOut, func(w *os.File) error {
		return lint.WriteJSONReport(w, ".", findings, stats)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "raplint:", err)
		os.Exit(2)
	}
	if *timing {
		printTiming(stats)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "raplint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func writeReport(path string, write func(*os.File) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printTiming(stats *lint.Stats) {
	fmt.Fprintf(os.Stderr, "raplint: %d packages in %s (load %s, analyze %s)\n",
		stats.Packages, round(stats.Total), round(stats.Load), round(stats.Analyze))
	names := make([]string, 0, len(stats.PerAnalyzer))
	for name := range stats.PerAnalyzer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-18s %s\n", name, round(stats.PerAnalyzer[name]))
	}
}

func round(d time.Duration) time.Duration {
	return d.Round(10 * time.Microsecond)
}
