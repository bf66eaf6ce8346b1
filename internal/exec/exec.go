// Package exec is the execution layer shared by every analysis in the
// repository. It unifies the three bounding mechanisms that used to live
// in separate packages — wall-clock deadlines, SAT conflict caps and
// context.Context cancellation — behind one Budget type, provides the
// splitmix64 seed-derivation scheme that gives every parallel task an
// independent deterministic seed, and implements a worker pool whose
// results are emitted in task order so sweep output is byte-identical at
// any worker count.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Budget bounds one unit of work. The zero value is unlimited.
type Budget struct {
	// Timeout is the wall-clock allowance (0: none). Enforced through the
	// context returned by Bind.
	Timeout time.Duration
	// Conflicts caps SAT conflicts per solver: 0 is unlimited, a negative
	// value exhausts immediately (propagation-only solves), a positive
	// value is the cap. See ConflictCap.
	Conflicts int64
}

// WithConflicts returns a conflict-capped budget with no wall-clock bound.
func WithConflicts(n int64) Budget { return Budget{Conflicts: n} }

// WithTimeout returns a wall-clock-bounded budget with no conflict cap.
func WithTimeout(d time.Duration) Budget { return Budget{Timeout: d} }

// Bind derives a context enforcing the wall-clock side of the budget:
// the parent's cancellation always propagates, and when Timeout is
// positive the derived context additionally expires after it. The caller
// must call the returned CancelFunc. A nil parent binds against
// context.Background.
func (b Budget) Bind(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	if b.Timeout > 0 {
		return context.WithTimeout(parent, b.Timeout)
	}
	return context.WithCancel(parent)
}

// ConflictCap converts Conflicts into the argument convention of
// sat.Solver.SetBudget: -1 (no limit) when Conflicts is zero, 0 (exhaust
// immediately) when Conflicts is negative, and Conflicts itself otherwise.
func (b Budget) ConflictCap() int64 {
	switch {
	case b.Conflicts == 0:
		return -1
	case b.Conflicts < 0:
		return 0
	default:
		return b.Conflicts
	}
}

// DeriveSeed expands a master seed into an independent per-task seed
// using the splitmix64 finalizer. Derived seeds depend only on (master,
// index), never on scheduling, which is what keeps parallel sweeps
// byte-identical at any worker count: task i always receives the same
// seed whether it runs first, last, or concurrently with its neighbours.
func DeriveSeed(master int64, index int) int64 {
	z := uint64(master) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Workers resolves a worker-count setting: a non-positive value means
// GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Collect runs n independent tasks on a pool of workers and hands every
// result to emit on the calling goroutine, in task order (0, 1, 2, …)
// regardless of completion order or worker count. run must not depend on
// shared mutable state; emit may (it is never called concurrently).
//
// workers is resolved through Workers (non-positive: GOMAXPROCS) and
// clamped to n. With one worker the tasks run serially on the calling
// goroutine. When ctx is cancelled, workers stop picking up new tasks
// and Collect returns after emitting the contiguous prefix of completed
// results; tasks that never ran are not emitted.
func Collect[T any](ctx context.Context, workers, n int, run func(ctx context.Context, i int) T, emit func(i int, r T)) {
	if n <= 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			emit(i, run(ctx, i))
		}
		return
	}
	type item struct {
		i int
		r T
	}
	var next atomic.Int64
	results := make(chan item, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				results <- item{i, run(ctx, i)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	// Reorder: emit the contiguous prefix as it completes.
	pending := make(map[int]T, workers)
	nextEmit := 0
	for it := range results {
		pending[it.i] = it.r
		for {
			r, ok := pending[nextEmit]
			if !ok {
				break
			}
			delete(pending, nextEmit)
			emit(nextEmit, r)
			nextEmit++
		}
	}
}
