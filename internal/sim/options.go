package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configures how a simulation executes. It never changes *what* is
// computed: for any Parallelism the resulting Snapshot is identical, entry
// for entry, to the sequential one — parallel workers only fill
// index-addressed slots that are merged deterministically afterwards.
type Options struct {
	// Parallelism bounds the worker pool fanning out per-router work
	// (per-speaker SPF, per-router route tables, per-prefix route-column
	// assembly). Zero or negative selects runtime.GOMAXPROCS(0); 1
	// forces the fully sequential path.
	Parallelism int
}

// workers resolves the effective pool size.
func (o Options) workers() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// Workers is the exported view of the resolved pool size, for callers
// (the anonymization pipeline) that fan out their own per-router work at
// the same parallelism the engine uses.
func (o Options) Workers() int { return o.workers() }

// ForEachIndex runs fn(i) for every i in [0, n), fanning out across at
// most workers goroutines. Callers keep determinism by writing results
// only into slot i of a preallocated slice and merging after the join; fn
// must not touch mutable state shared between indices.
func ForEachIndex(workers, n int, fn func(i int)) { forEachIndex(workers, n, fn) }

// forEachIndex runs fn(i) for every i in [0, n), fanning out across at most
// workers goroutines. Callers keep determinism by writing results only into
// slot i of a preallocated slice and merging after the join; fn must not
// touch shared mutable state.
func forEachIndex(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
