// Package reportgolden triggers exactly one finding each from floateq
// and seededrand; the JSON encoding of the result is pinned as a golden
// file (testdata/golden/report.json).
package reportgolden

import "math/rand"

func same(a, b float64) bool {
	return a == b // floateq: exact float comparison
}

func roll() int {
	return rand.Intn(6) // seededrand: shared global source
}
