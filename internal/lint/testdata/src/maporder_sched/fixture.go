// Package sched is a maporder fixture: the order-insensitive loop bodies
// maporder accepts, next to the order-sensitive ones it flags.
package sched

import "sort"

func collectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // ok: sorted-key extraction
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func countAll(m map[string]int) int {
	n := 0
	for _, v := range m { // ok: exactly commutative integer reduction
		n += v
	}
	return n
}

func copyAll(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m { // ok: per-key writes touch disjoint entries
		out[k] = v
	}
	return out
}

func pruneZero(m map[string]int) {
	for k, v := range m { // ok: per-key delete keyed by the range key
		if v == 0 {
			delete(m, k)
		}
	}
}

func means(sums map[string]float64, counts map[string]int) map[string]float64 {
	out := make(map[string]float64, len(sums))
	for k, s := range sums { // ok: per-key write of a pure conversion
		out[k] = s / float64(counts[k])
	}
	return out
}

func sumFloats(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m { // want "map iteration order"
		s += v
	}
	return s
}

func firstKey(m map[string]int) string {
	for k := range m { // want "map iteration order"
		return k
	}
	return ""
}

func appendValues(m map[string]int, dst []int) []int {
	for _, v := range m { // want "map iteration order"
		dst = append(dst, v)
	}
	return dst
}

func argmax(m map[string]float64) string {
	best, bestV := "", 0.0
	for k, v := range m { // want "map iteration order"
		if v > bestV {
			best, bestV = k, v
		}
	}
	return best
}

func suppressed(m map[string]float64) float64 {
	s := 0.0
	//lint:ignore maporder test fixture: deliberately suppressed
	for _, v := range m {
		s += v
	}
	return s
}
