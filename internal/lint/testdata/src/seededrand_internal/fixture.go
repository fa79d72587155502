// Package simfix is a seededrand fixture under an internal import path.
package simfix

import (
	"math/rand"
	"time"
)

func jitter() float64 {
	return rand.Float64() // want "shared global source"
}

func pick(n int) int {
	return rand.Intn(n) // want "shared global source"
}

func stamp() int64 {
	return time.Now().UnixNano() // want "wall clock"
}

func age(t time.Time) time.Duration {
	return time.Since(t) // want "wall clock"
}

func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // ok: constructing the injected rng
	return r.Float64()                  // ok: method on the injected rng
}

func shuffle(r *rand.Rand, xs []int) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // ok
}

func span(a, b time.Duration) time.Duration {
	return b - a // ok: time types without reading the clock
}
