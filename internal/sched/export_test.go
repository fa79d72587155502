package sched

// CheckStampedMatchesBuilt is checkStampedMatchesBuilt for the
// fleet-shape test, which plans its pipelines through package rap and
// so lives in package sched_test.
var CheckStampedMatchesBuilt = checkStampedMatchesBuilt
