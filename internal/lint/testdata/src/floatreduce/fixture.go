// Package redfix is a floatreduce fixture: float accumulations whose
// completion or arrival order is not statically deterministic, next to
// the deterministic shapes the analyzer must leave alone. Map-range
// sums are maporder's, not floatreduce's.
package redfix

import "sync"

// MapSum accumulates float values in randomized map order: maporder
// reports the range statement, so floatreduce does not report it twice.
func MapSum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v // ok: maporder's finding
	}
	return sum
}

// Fan accumulates into captured state from loop-launched goroutines:
// the mutex serializes the writes but not their order.
func Fan(xs []float64) float64 {
	var mu sync.Mutex
	total := 0.0
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			total += x // want "completion order is scheduler-dependent"
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// Partials is the deterministic reduction the analyzer recommends:
// per-worker cells indexed by the launching loop's variable, merged in
// slice order afterwards.
func Partials(xs []float64) float64 {
	parts := make([]float64, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(xs); i += 4 {
				parts[w] += xs[i] // ok: cell private to worker w
			}
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, p := range parts {
		sum += p // ok: slice range visits a fixed order
	}
	return sum
}

// Drain sums values received from loop-launched senders: arrival order
// interleaves nondeterministically.
func Drain(xs []float64) float64 {
	ch := make(chan float64)
	for _, x := range xs {
		go func() { ch <- x * x }()
	}
	sum := 0.0
	for range xs {
		sum += <-ch // want "receive order is scheduler-dependent"
	}
	return sum
}

// DrainRange is the range-over-channel spelling of the same hazard.
func DrainRange(xs []float64) float64 {
	ch := make(chan float64)
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch <- x
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	sum := 0.0
	for v := range ch {
		sum += v // want "receive order from concurrent senders is scheduler-dependent"
	}
	return sum
}
