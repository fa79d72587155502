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
// applies the analyzers to each target package in import-path order,
// and returns findings sorted by position together with timing stats.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, *Stats, error) {
	//lint:ignore seededrand raplint times its own passes; no simulated result depends on this clock
	start := time.Now()
	targets, err := load(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{Packages: len(targets), PerAnalyzer: map[string]time.Duration{}}
	//lint:ignore seededrand raplint times its own passes; no simulated result depends on this clock
	stats.Load = time.Since(start)

	var findings []Finding
	for _, pkg := range targets {
		runPackage(pkg, analyzers, &findings, stats.PerAnalyzer)
	}
	SortFindings(findings)

	//lint:ignore seededrand raplint times its own passes; no simulated result depends on this clock
	stats.Total = time.Since(start)
	stats.Analyze = stats.Total - stats.Load
	return findings, stats, nil
}
