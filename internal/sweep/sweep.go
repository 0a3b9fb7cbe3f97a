// Package sweep provides a deterministic concurrent grid runner: the
// execution engine behind the experiment layer's parameter sweeps (the
// 20-benchmark x 5-cap x 5-technique grid of Table 3, the 12-mix
// multi-application grid of Tables 5-6, and the sensitivity and extension
// studies).
//
// A sweep is a flat slice of independent Cells. Each cell is a closed-over
// unit of work — one simulation, one oracle search — that derives all of its
// randomness from a stable per-cell seed (see Seed), never from scheduling.
// The engine runs cells on a bounded worker pool and collects results into a
// slice indexed exactly like the input, so the assembled output is identical
// regardless of worker count or interleaving: determinism is a property of
// the cells, ordering is a property of the engine, and together they make a
// parallel sweep byte-for-byte reproducible.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cell is one independent unit of a grid: a deterministic function of its
// inputs and the context it is given. Run must not depend on shared mutable
// state or on the order cells execute in.
type Cell[T any] struct {
	// Label names the cell in progress reports and error messages,
	// e.g. "RAPL/x264/140W".
	Label string
	// Run computes the cell. It should honour ctx cancellation promptly
	// (long simulations receive it through driver.RunContext).
	Run func(ctx context.Context) (T, error)
}

// Progress observes cell completions. done counts finished cells (including
// failed ones), total is the grid size, and label names the cell that just
// finished. The engine serializes calls, so implementations need no locking.
type Progress func(done, total int, label string)

// Options tunes how a sweep executes. Options never affect results — only
// wall-clock time and observability.
type Options struct {
	// Parallel bounds the worker pool. Values <= 0 mean GOMAXPROCS.
	Parallel int
	// Progress, when non-nil, is called after every cell completes.
	Progress Progress
}

// Workers resolves a requested parallelism to an effective worker count:
// the request itself when positive, otherwise GOMAXPROCS.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes every cell on a bounded worker pool and returns the results
// in cell order. The first cell failure cancels the context handed to the
// remaining cells (fail-fast) and unstarted cells are skipped; all errors
// that did occur are aggregated in cell order, each annotated with its
// cell's label. When the parent context is cancelled, Run drains promptly
// and returns the context's error.
func Run[T any](ctx context.Context, cells []Cell[T], opts Options) ([]T, error) {
	results := make([]T, len(cells))
	if len(cells) == 0 {
		return results, ctx.Err()
	}
	workers := Workers(opts.Parallel)
	if workers > len(cells) {
		workers = len(cells)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, len(cells))
	// The workers' shared state is one struct, so it costs one heap
	// allocation rather than one per field: a cluster epoch is a sweep, so
	// this runs once per epoch.
	var pool struct {
		next atomic.Int64 // next cell index, claimed atomically
		done atomic.Int64
		mu   sync.Mutex // serializes Progress callbacks
		wg   sync.WaitGroup
	}
	for w := 0; w < workers; w++ {
		pool.wg.Add(1)
		go func() {
			defer pool.wg.Done()
			for {
				i := int(pool.next.Add(1) - 1)
				if i >= len(cells) || runCtx.Err() != nil {
					return
				}
				c := cells[i]
				v, err := c.Run(runCtx)
				if err != nil {
					if c.Label != "" {
						err = fmt.Errorf("%s: %w", c.Label, err)
					}
					errs[i] = err
					cancel()
				} else {
					results[i] = v
				}
				d := int(pool.done.Add(1))
				if opts.Progress != nil {
					pool.mu.Lock()
					opts.Progress(d, len(cells), c.Label)
					pool.mu.Unlock()
				}
			}
		}()
	}
	pool.wg.Wait()

	var failures []error
	for _, e := range errs {
		if e != nil {
			failures = append(failures, e)
		}
	}
	if len(failures) > 0 {
		return results, errors.Join(failures...)
	}
	// No cell failed but the parent was cancelled: surface that, since an
	// arbitrary suffix of the grid may have been skipped.
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// Seed derives a stable per-cell seed salt from the cell's coordinate
// labels (FNV-1a over the labels with a separator, so {"a","bc"} and
// {"ab","c"} hash differently). Equal labels always produce equal seeds —
// the per-cell randomness that keeps a sweep independent of scheduling.
func Seed(labels ...string) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h ^= uint64(l[i])
			h *= 1099511628211
		}
		h ^= '/'
		h *= 1099511628211
	}
	return h
}
