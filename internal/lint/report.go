package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"runtime"
)

// reportVersion is the raplintVersion field of the JSON report: the
// report generation, bumped whenever a field or an analyzer leaves or
// joins it.
const reportVersion = "8"

// relPath renders a finding path relative to the module root so
// reports are stable across checkouts.
func relPath(root, path string) string {
	if root == "" {
		return path
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(abs, path)
	if err != nil || len(rel) >= 2 && rel[:2] == ".." {
		return path
	}
	return filepath.ToSlash(rel)
}

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

type jsonStats struct {
	Packages   int                `json:"packages"`
	LoadMs     float64            `json:"loadMs"`
	AnalyzeMs  float64            `json:"analyzeMs"`
	TotalMs    float64            `json:"totalMs"`
	AnalyzerMs map[string]float64 `json:"analyzerMs,omitempty"`
	// FindingsByAnalyzer counts this run's findings per analyzer, so
	// dashboards can trend analyzer yield without re-parsing findings.
	FindingsByAnalyzer map[string]int `json:"findingsByAnalyzer,omitempty"`
}

type jsonReport struct {
	RaplintVersion string        `json:"raplintVersion"`
	GoVersion      string        `json:"goVersion"`
	Findings       []jsonFinding `json:"findings"`
	Stats          *jsonStats    `json:"stats,omitempty"`
}

// WriteJSONReport encodes findings (and, when non-nil, run stats) as
// the machine-readable lint-report artifact consumed by CI. Paths are
// relative to root.
func WriteJSONReport(w io.Writer, root string, findings []Finding, stats *Stats) error {
	rep := jsonReport{
		RaplintVersion: reportVersion,
		GoVersion:      runtime.Version(),
		Findings:       make([]jsonFinding, 0, len(findings)),
	}
	for _, f := range findings {
		rep.Findings = append(rep.Findings, jsonFinding{
			Analyzer: f.Analyzer,
			File:     relPath(root, f.Pos.Filename),
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Message,
		})
	}
	if stats != nil {
		js := &jsonStats{
			Packages:   stats.Packages,
			LoadMs:     float64(stats.Load.Microseconds()) / 1e3,
			AnalyzeMs:  float64(stats.Analyze.Microseconds()) / 1e3,
			TotalMs:    float64(stats.Total.Microseconds()) / 1e3,
			AnalyzerMs: map[string]float64{},
		}
		for name, d := range stats.PerAnalyzer {
			js.AnalyzerMs[name] = float64(d.Microseconds()) / 1e3
		}
		if len(findings) > 0 {
			js.FindingsByAnalyzer = map[string]int{}
			for _, f := range findings {
				js.FindingsByAnalyzer[f.Analyzer]++
			}
		}
		rep.Stats = js
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
