package preproc

import (
	"fmt"
	"runtime"
	"sync"

	"rap/internal/tensor"
)

// merger owns the state the parallel workers share: the batch being
// grown and the first error observed. Every access to the guarded
// fields goes through a method that holds mu; the race-detector tests
// in parallel_test.go check it.
type merger struct {
	mu       sync.Mutex
	batch    *tensor.Batch // guarded by mu
	firstErr error         // guarded by mu
}

// view returns a shallow copy of the shared batch for one worker. The
// copy must be taken under the merge lock: another worker may be
// appending columns to the batch concurrently.
func (m *merger) view() *tensor.Batch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batch.ShallowCopy()
}

// fail records err as the run's result unless an earlier error already
// claimed the slot.
func (m *merger) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// merge copies the graph's output columns from the worker's view back
// into the shared batch; merge errors claim the first-error slot.
func (m *merger) merge(g *Graph, view *tensor.Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, op := range g.Ops {
		name := op.Output()
		if d := view.DenseByName(name); d != nil {
			if err := m.batch.AddOrReplaceDense(d); err != nil && m.firstErr == nil {
				m.firstErr = err
			}
			continue
		}
		if s := view.SparseByName(name); s != nil {
			if err := m.batch.AddOrReplaceSparse(s); err != nil && m.firstErr == nil {
				m.firstErr = err
			}
		}
	}
}

// err returns the first error the run recorded, if any.
func (m *merger) err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firstErr
}

// ParallelApply executes every graph of the plan on b using a pool of
// CPU workers — the execution model of the TorchArrow/Velox-style CPU
// preprocessing tier (8 workers per trainer in the paper's baseline).
//
// Graphs are independent by construction (Plan.Validate enforces
// cross-graph output uniqueness), so each worker runs whole graphs on a
// shallow view of the batch (shared input columns, private column
// table) and the newly produced columns are merged back under the
// merger's lock. Operators never mutate their inputs, which makes the
// shared-column reads race-free.
func ParallelApply(p *Plan, b *tensor.Batch, workers int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(p.Graphs) {
		workers = len(p.Graphs)
	}
	if workers <= 1 {
		return p.Apply(b)
	}

	m := &merger{batch: b}
	jobs := make(chan *Graph)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range jobs {
				view := m.view()
				if err := g.Apply(view); err != nil {
					m.fail(fmt.Errorf("preproc: graph %q: %w", g.Name, err))
					continue
				}
				m.merge(g, view)
			}
		}()
	}
	for _, g := range p.Graphs {
		jobs <- g
	}
	close(jobs)
	wg.Wait()
	return m.err()
}
