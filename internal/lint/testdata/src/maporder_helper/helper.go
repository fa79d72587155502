// Package helperfix is a maporder fixture: a utility package outside
// the simulator and planner, whose map iteration leaks order dependence
// to every caller in any package. maporder reports the leak at its own
// range statement, so no caller needs a call graph to be protected.
package helperfix

// Tally flattens m's values in map-iteration order.
func Tally(m map[string]int) []int {
	var counts []int
	for _, v := range m { // want "map iteration order"
		counts = append(counts, v)
	}
	return counts
}
