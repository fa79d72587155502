// Package ighelper is a fixture for the whole-run unusedignore check: a
// utility package outside maporder's scope. Its detaint directive is
// consumed only while detaint analyzes a deterministic root in another
// package (rap/cmd/igroot); its second directive excuses nothing.
package ighelper

// Tally flattens m's values in map-iteration order.
func Tally(m map[string]int) []int {
	var counts []int
	//lint:ignore detaint fixture: callers sort the result before use
	for _, v := range m {
		counts = append(counts, v)
	}
	return counts
}

// Size has no taint site; its directive is stale.
func Size(m map[string]int) int {
	//lint:ignore detaint fixture directive that suppresses nothing // want "suppresses no finding"
	return len(m)
}
