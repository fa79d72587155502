package simfix

// The cases below are told apart only by type checking: a call is
// flagged by the package its selector resolves to, not by its name.

import (
	mrand "math/rand"
	"math/rand/v2"
	"time"
)

func drawV2(n int) int {
	return rand.IntN(n) // want "shared global source"
}

func drawGeneric() time.Duration {
	return rand.N(time.Second) // want "shared global source"
}

func drawRenamed() float64 {
	return mrand.Float64() // want "shared global source"
}

func seededV2(seed uint64) int {
	r := rand.New(rand.NewPCG(seed, seed)) // ok: constructing the injected rng
	return r.IntN(4)                       // ok: method on the injected rng
}

func timers(f func()) {
	<-time.After(time.Second)          // want "time.After depends on the wall clock"
	time.AfterFunc(time.Second, f)     // want "time.AfterFunc depends on the wall clock"
	time.NewTimer(time.Second).Stop()  // want "time.NewTimer depends on the wall clock"
	time.NewTicker(time.Second).Stop() // want "time.NewTicker depends on the wall clock"
	for range time.Tick(time.Second) { // want "time.Tick depends on the wall clock"
		break
	}
}

// clock and source stand in for a simulated clock and an injected rng
// held in variables that shadow the packages.
type clock struct{ now float64 }

func (c clock) Now() float64 { return c.now }

type source struct{ next int }

func (s source) Intn(n int) int { return s.next % n }

func shadowed(now float64) float64 {
	time := clock{now: now}
	return time.Now() // ok: a local named time, not the package
}

func shadowedRand(rand source) int {
	return rand.Intn(3) // ok: a parameter named rand, not the package
}
