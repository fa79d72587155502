package memo

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestGetMemoizes(t *testing.T) {
	c := New[string, int]()
	calls := 0
	compute := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.Get("k", compute)
		if err != nil || v != 42 {
			t.Fatalf("Get = %d, %v; want 42, nil", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if h, m := c.Stats(); h != 2 || m != 1 {
		t.Fatalf("Stats = %d hits, %d misses; want 2, 1", h, m)
	}
}

func TestNilCacheComputesEveryCall(t *testing.T) {
	var c *Cache[string, int]
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := c.Get("k", func() (int, error) { calls++; return calls, nil })
		if err != nil || v != i+1 {
			t.Fatalf("call %d: Get = %d, %v; want %d, nil", i, v, err, i+1)
		}
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("nil cache counted %d hits, %d misses", h, m)
	}
}

func TestErrorNotStored(t *testing.T) {
	c := New[string, int]()
	boom := errors.New("boom")
	if _, err := c.Get("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Get error = %v, want %v", err, boom)
	}
	calls := 0
	v, err := c.Get("k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 || calls != 1 {
		t.Fatalf("after a failed compute: Get = %d, %v with %d computes; want 7, nil, 1", v, err, calls)
	}
	if h, m := c.Stats(); h != 0 || m != 2 {
		t.Fatalf("Stats = %d hits, %d misses; want 0, 2", h, m)
	}
}

// TestConcurrentGet: every lookup counts exactly once, and every caller
// sees the value compute produces for its key. Half the goroutines call
// only Stats, so under -race this also catches a Stats that reads the
// counters without the lock.
func TestConcurrentGet(t *testing.T) {
	const callers, keys = 64, 4
	c := New[int, string]()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := i % keys
			want := fmt.Sprintf("v%d", k)
			v, err := c.Get(k, func() (string, error) { return want, nil })
			if err != nil || v != want {
				t.Errorf("Get(%d) = %q, %v; want %q, nil", k, v, err, want)
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h, m := c.Stats(); h+m > callers {
				t.Errorf("Stats = %d hits, %d misses mid-run", h, m)
			}
		}()
	}
	wg.Wait()
	h, m := c.Stats()
	if h+m != callers {
		t.Fatalf("hits+misses = %d+%d, want %d", h, m, callers)
	}
	if m < keys {
		t.Fatalf("%d misses for %d distinct keys", m, keys)
	}
}
