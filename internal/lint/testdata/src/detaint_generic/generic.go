// Package genericfix is a fixture: a generic cache outside the
// deterministic package set, so maporder does not police it. Its
// order-dependent map iterations are reachable only through calls into
// generic code — an explicit instantiation and a method of an
// instantiated type — which the call graph must resolve to the generic
// declarations for detaint to see them.
package genericfix

// Cache is a minimal generic map wrapper.
type Cache[K comparable, V any] struct {
	entries map[K]V
}

// New returns an empty cache seeded with one entry per key.
func New[K comparable, V any](keys []K, v V) *Cache[K, V] {
	c := &Cache[K, V]{entries: map[K]V{}}
	for _, k := range keys {
		c.entries[k] = v
	}
	return c
}

// Any returns whichever value map iteration yields first.
func (c *Cache[K, V]) Any() V {
	for _, v := range c.entries { // want "order-dependent map iteration (call path: genericfix.Pick -> (genericfix.Cache).Any)"
		return v
	}
	var zero V
	return zero
}

// First returns whichever key map iteration yields first.
func First[K comparable, V any](m map[K]V) K {
	for k := range m { // want "order-dependent map iteration (call path: genericfix.Pick -> genericfix.First)"
		return k
	}
	var zero K
	return zero
}

// Pick reaches both taints only through generic call edges.
//
//rap:deterministic
func Pick() (int, string) {
	c := New[string, int]([]string{"a", "b"}, 1)
	return c.Any(), First[string, int](map[string]int{"a": 1, "b": 2})
}
