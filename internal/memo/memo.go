// Package memo is the planner's one memoization primitive: a
// concurrency-safe map from a content key to a computed value, with
// hit/miss counters. What a key covers is the caller's business — each
// planner memo builds its key in the package that knows what its
// computation reads — so a hit returns exactly what compute would have
// returned, and the cache never changes results, only whether they are
// recomputed.
package memo

import "sync"

// Cache memoizes compute results by key. It is safe for concurrent
// use, never stores an error result, and never evicts. Stored values
// are returned as is, so callers must not mutate what they get back.
// A nil *Cache is valid: it runs compute on every call and counts
// nothing.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]V // guarded by mu
	hits    int     // guarded by mu
	misses  int     // guarded by mu
}

// New returns an empty cache.
func New[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{entries: map[K]V{}}
}

// Get returns the value stored under key, or runs compute and stores
// its result when compute succeeds. compute runs without the lock held,
// so concurrent misses on one key may each compute; every one of them
// counts as a miss.
func (c *Cache[K, V]) Get(key K, compute func() (V, error)) (V, error) {
	if c == nil {
		return compute()
	}
	if v, ok := c.lookup(key); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	c.store(key, v)
	return v, nil
}

// Stats reports the lookup hit/miss counts so far.
func (c *Cache[K, V]) Stats() (hits, misses int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *Cache[K, V]) lookup(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

func (c *Cache[K, V]) store(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = v
}
