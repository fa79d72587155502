package preproc

import (
	"runtime"
	"sync"

	"rap/internal/tensor"
)

// ParallelApply executes every graph of the plan on b using a pool of
// CPU workers — the execution model of the TorchArrow/Velox-style CPU
// preprocessing tier (8 workers per trainer in the paper's baseline).
//
// Graphs are independent by construction (Plan.Validate enforces
// cross-graph output uniqueness), so each graph runs on its own shallow
// view of b, taken before the fan-out (shared input columns, private
// column table), and records its error in its own slot. Operators never
// mutate their inputs, which makes the shared-column reads race-free,
// and a worker writes only the view and slot of the graph it runs. After
// the workers finish, the views are published into b in plan order, up
// to and including the first graph that failed, so b and the returned
// error are exactly those of serial Apply whatever the schedule.
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

	views := make([]*tensor.Batch, len(p.Graphs))
	for i := range views {
		views[i] = b.ShallowCopy()
	}
	errs := make([]error, len(p.Graphs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = p.Graphs[i].Apply(views[i])
			}
		}()
	}
	for i := range p.Graphs {
		next <- i
	}
	close(next)
	wg.Wait()

	base := b.ShallowCopy()
	for i, g := range p.Graphs {
		if err := publish(b, base, views[i]); err != nil {
			return err
		}
		if errs[i] != nil {
			return graphErr(g, errs[i])
		}
	}
	return nil
}

// publish copies into b the columns a graph added to or replaced in its
// view, in the order its operators produced them. base is b's column
// table when the view was taken: the view's columns past base's are
// new, and one that differs from base's at its index was replaced.
// Comparing with b instead would republish a raw column that an earlier
// graph had replaced.
func publish(b, base, view *tensor.Batch) error {
	for i, d := range view.Dense {
		if i >= len(base.Dense) || d != base.Dense[i] {
			if err := b.AddOrReplaceDense(d); err != nil {
				return err
			}
		}
	}
	for i, s := range view.Sparse {
		if i >= len(base.Sparse) || s != base.Sparse[i] {
			if err := b.AddOrReplaceSparse(s); err != nil {
				return err
			}
		}
	}
	return nil
}
