package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json the comparison reads.
type benchDef struct {
	EndToEnd []bound `json:"end_to_end"`
}

// bound is one end-to-end metric's regression rule: the share of the
// baseline median by which it may worsen.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSet reads the untraced -out results of a directory, by workload.
func loadSet(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := map[string][]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace || r.EndToEnd == nil {
			continue
		}
		set[r.Workload] = append(set[r.Workload], &r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s holds no untraced results", dir)
	}
	return set, nil
}

// digests is the sorted, de-duplicated list of a workload's input
// digests in one set.
func digests(rs []*result) string {
	seen := map[string]bool{}
	var ds []string
	for _, r := range rs {
		if !seen[r.InputDigest] {
			seen[r.InputDigest] = true
			ds = append(ds, r.InputDigest)
		}
	}
	sort.Strings(ds)
	return strings.Join(ds, ",")
}

// verdict classifies set B against set A for one metric. The spread of
// a set is the distance between its quartiles as a share of its
// median; when either spread exceeds the bound the change is
// unresolved, unless every B run is better than every A run.
func verdict(a, b []float64, bd bound) (v string, change, spread float64) {
	sa, sb := summarize(a, nil), summarize(b, nil)
	spread = max(ratio(sa.Q3-sa.Q1, sa.P50), ratio(sb.Q3-sb.Q1, sb.P50))
	change = ratio(sb.P50-sa.P50, sa.P50)
	worse := change
	if bd.Better == "higher" {
		worse = -change
	}
	better := func(x, y float64) bool { // x better than y
		if bd.Better == "higher" {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case spread > bd.Bound && allBetter:
		return "improved", change, spread
	case spread > bd.Bound:
		return "unresolved", change, spread
	case worse > bd.Bound:
		return "regressed", change, spread
	case -worse > bd.Bound:
		return "improved", change, spread
	default:
		return "unchanged", change, spread
	}
}

// compareSets prints one row per (end-to-end metric, workload) and
// reports whether any regressed. Sets whose inputs differ are refused.
func compareSets(benchPath, dirA, dirB string, w io.Writer) (bool, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	setA, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	setB, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range setA {
		names = append(names, name)
	}
	sort.Strings(names)
	for name := range setB {
		if setA[name] == nil {
			return false, fmt.Errorf("workload %s is only in %s", name, dirB)
		}
	}
	for _, name := range names {
		if setB[name] == nil {
			return false, fmt.Errorf("workload %s is only in %s", name, dirA)
		}
		if digests(setA[name]) != digests(setB[name]) {
			return false, fmt.Errorf("workload %s: the sets ran different inputs (input digests differ)", name)
		}
	}

	regressed := false
	fmt.Fprintf(w, "%-20s %-8s %14s %14s %9s %8s %7s  %s\n",
		"metric", "workload", "median A", "median B", "change", "spread", "bound", "verdict")
	for _, bd := range def.EndToEnd {
		for _, name := range names {
			var a, b []float64
			for _, r := range setA[name] {
				a = append(a, r.EndToEnd[bd.Name].Value)
			}
			for _, r := range setB[name] {
				b = append(b, r.EndToEnd[bd.Name].Value)
			}
			v, change, spread := verdict(a, b, bd)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-20s %-8s %14.6g %14.6g %+8.2f%% %7.2f%% %6.2f%%  %s\n",
				bd.Name, name, median(a), median(b), 100*change, 100*spread, 100*bd.Bound, v)
		}
	}
	return regressed, nil
}
