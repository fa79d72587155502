// Package lint holds the test of the project's one static determinism
// rule, seededrand: non-test code under internal/ must not draw from
// math/rand's shared global source or depend on the wall clock.
// Randomness comes from an injected, seeded *rand.Rand and time from
// the simulator, or two runs of one configuration diverge (DESIGN.md
// §6). The package has no production code: TestTreeClean type-checks
// every module package from source and fails on each violation.
package lint
