// Package igroot is a fixture: a //rap:deterministic root whose only
// taint is the map iteration excused inside rap/internal/ighelper.
package igroot

import "rap/internal/ighelper"

// Digest must be deterministic; it reaches ighelper.Tally's excused
// map iteration.
//
//rap:deterministic
func Digest(m map[string]int) int {
	return len(ighelper.Tally(m)) + ighelper.Size(m)
}
