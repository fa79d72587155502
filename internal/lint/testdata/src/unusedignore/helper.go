// Package ighelper is an unusedignore fixture: its first directive
// excuses a floateq finding, its second excuses nothing. The stale
// one is reported whatever the pattern that selects the package.
package ighelper

// Same compares a and b bit for bit.
func Same(a, b float64) bool {
	//lint:ignore floateq fixture: callers want bit equality
	return a == b
}

// SameInt compares integers; its directive is stale.
func SameInt(a, b int) bool {
	//lint:ignore floateq fixture directive that suppresses nothing // want "suppresses no finding"
	return a == b
}
