package lint

import "time"

// Stats reports where a run spent its time, for the -timing flag and
// the JSON report.
type Stats struct {
	Packages int
	// Load covers package discovery, parsing and type checking.
	Load time.Duration
	// Analyze covers the analyzer passes and the unusedignore check.
	Analyze time.Duration
	Total   time.Duration
	// PerAnalyzer is wall time attributed to each analyzer, summed
	// across packages.
	PerAnalyzer map[string]time.Duration
}

// Run loads the packages matching patterns (relative to dir; default
// ./...), type-checks them and their module dependencies from source,
// joins everything into one Program, applies the analyzers to each
// target package in import-path order, runs the whole-run unusedignore
// check when UnusedIgnore is among the analyzers, and returns findings
// sorted by position together with timing stats.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, *Stats, error) {
	//lint:ignore seededrand raplint times its own passes; no simulated result depends on this clock
	start := time.Now()
	checkUnused := false
	var perPkg []*Analyzer
	for _, a := range analyzers {
		if a.Name == UnusedIgnore.Name {
			checkUnused = true
			continue
		}
		perPkg = append(perPkg, a)
	}

	targets, all, err := load(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	prog := NewProgram(all)
	stats := &Stats{Packages: len(targets), PerAnalyzer: map[string]time.Duration{}}
	//lint:ignore seededrand raplint times its own passes; no simulated result depends on this clock
	stats.Load = time.Since(start)

	var findings []Finding
	for _, pkg := range targets {
		prog.runPackage(pkg, perPkg, &findings, stats.PerAnalyzer)
	}
	if checkUnused {
		findings = append(findings, prog.unusedIgnoreFindings(targets, analyzers)...)
	}
	SortFindings(findings)

	//lint:ignore seededrand raplint times its own passes; no simulated result depends on this clock
	stats.Total = time.Since(start)
	stats.Analyze = stats.Total - stats.Load
	return findings, stats, nil
}
