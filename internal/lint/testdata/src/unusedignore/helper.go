// Package ighelper is an unusedignore fixture: its first directive
// excuses a maporder finding, its second excuses nothing. The stale
// one is reported whatever the pattern that selects the package.
package ighelper

// Tally flattens m's values in map-iteration order.
func Tally(m map[string]int) []int {
	var counts []int
	//lint:ignore maporder fixture: callers sort the result before use
	for _, v := range m {
		counts = append(counts, v)
	}
	return counts
}

// Size has no map range; its directive is stale.
func Size(m map[string]int) int {
	//lint:ignore maporder fixture directive that suppresses nothing // want "suppresses no finding"
	return len(m)
}
