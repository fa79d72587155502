// Package other is a maporder fixture under a package name outside the
// simulator and planner: maporder runs on every package, so
// order-sensitive map iteration is flagged here too.
package other

func firstKey(m map[string]int) string {
	for k := range m { // want "map iteration order"
		return k
	}
	return ""
}
