package main

import (
	"sort"
	"time"
)

// summary describes one timing distribution: the reported median and
// p90 plus the sample count and quartiles the -out file records.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	Q1  float64 `json:"q1"`
	Q3  float64 `json:"q3"`
}

// summarize computes quantiles with every stratum weighted equally:
// sample i belongs to stratum strata[i] (nil puts every sample in its
// own). A run ends mid-way through a cycle of inputs whose costs
// differ, so unweighted quantiles would depend on which inputs the
// last, partial cycle happened to reach.
func summarize(xs []float64, strata []int) summary {
	count := map[int]int{}
	for i := range xs {
		count[stratum(strata, i)]++
	}
	type sample struct{ x, w float64 }
	s := make([]sample, len(xs))
	for i, x := range xs {
		s[i] = sample{x, 1 / float64(count[stratum(strata, i)])}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].x < s[b].x })
	// Each sample sits at the midpoint of its cumulative weight; a
	// quantile interpolates linearly between neighbouring positions.
	total := 0.0
	for _, v := range s {
		total += v.w
	}
	pos := make([]float64, len(s))
	cum := 0.0
	for i, v := range s {
		pos[i] = (cum + v.w/2) / total
		cum += v.w
	}
	q := func(p float64) float64 {
		switch {
		case len(s) == 0:
			return 0
		case p <= pos[0]:
			return s[0].x
		case p >= pos[len(s)-1]:
			return s[len(s)-1].x
		}
		hi := sort.SearchFloat64s(pos, p)
		lo := hi - 1
		f := (p - pos[lo]) / (pos[hi] - pos[lo])
		return s[lo].x + f*(s[hi].x-s[lo].x)
	}
	return summary{N: len(xs), P50: q(0.5), P90: q(0.9), Q1: q(0.25), Q3: q(0.75)}
}

func stratum(strata []int, i int) int {
	if strata == nil {
		return i
	}
	return strata[i]
}

func median(xs []float64) float64 { return summarize(xs, nil).P50 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
