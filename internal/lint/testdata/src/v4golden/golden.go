// Package v4golden triggers exactly one finding from each v4 analyzer;
// the JSON encoding of the result is pinned as a golden file
// (testdata/golden/v4.json).
package v4golden

import (
	"sync"
	"sync/atomic"
)

type pair struct {
	mu sync.Mutex
	n  int
}

func lockAB(a, b *pair) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // lockorder: reverse of lockBA
	defer b.mu.Unlock()
	a.n++
	b.n++
}

func lockBA(a, b *pair) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n--
	b.n--
}

var total int64

func addTotal() {
	atomic.AddInt64(&total, 1)
}

func readTotal() int64 {
	return total // atomicplain: plain load of an atomically written word
}

func waitNever() {
	var wg sync.WaitGroup
	wg.Add(1) // wgcheck: no Done anywhere
	wg.Wait()
}

func sendNever() {
	ch := make(chan int)
	go func() {
		ch <- 1 // goroutineleak: nothing receives
	}()
}
