package exec

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Queue-admission errors returned by Queue.Submit. Callers translate
// them into their own backpressure vocabulary (the service layer maps
// ErrSaturated to HTTP 429 and ErrDraining to 503).
var (
	// ErrSaturated reports that the bounded backlog is full: the task was
	// rejected, not queued. Submit never blocks — fail-fast admission is
	// what lets a server answer "try again later" instead of stalling.
	ErrSaturated = errors.New("exec: queue saturated")
	// ErrDraining reports that the queue has stopped admitting work
	// because Drain was called.
	ErrDraining = errors.New("exec: queue draining")
)

// Queue is a long-lived bounded worker pool for a dynamic stream of
// tasks — the scheduler substrate of a daemon, where work arrives one
// request at a time and must be admission-controlled. It complements
// Collect, which runs a fixed task list and returns: a Queue runs until
// drained, never blocks the submitter, and applies backpressure by
// rejecting (ErrSaturated) once its backlog bound is reached.
//
// Determinism note: a Queue makes no ordering promises — tasks run as
// workers free up. Callers that need deterministic results make each
// task self-deterministic (seeded by content, not by arrival order),
// which is exactly the contract of the job runner built on top.
type Queue struct {
	mu       sync.Mutex
	tasks    chan func()
	draining bool
	inflight sync.WaitGroup // queued + running tasks
	workers  sync.WaitGroup
	pm       PoolMetrics
}

// NewQueue starts a pool of workers (resolved through Workers:
// non-positive means GOMAXPROCS) consuming a backlog bounded at depth
// tasks (minimum 1). The optional metrics record per-task latency,
// completions and the number of tasks currently executing; the zero
// PoolMetrics is free.
func NewQueue(workers, depth int, pm PoolMetrics) *Queue {
	if depth < 1 {
		depth = 1
	}
	q := &Queue{tasks: make(chan func(), depth), pm: pm}
	for w := 0; w < Workers(workers); w++ {
		q.workers.Add(1)
		go func() {
			defer q.workers.Done()
			for task := range q.tasks {
				task()
			}
		}()
	}
	return q
}

// Submit offers a task to the queue without blocking. It returns nil
// when the task was accepted (it will eventually run, even if Drain is
// called afterwards), ErrSaturated when the backlog is full, and
// ErrDraining once Drain has been called.
func (q *Queue) Submit(task func()) error {
	if task == nil {
		return nil
	}
	run := task
	if q.pm.enabled() {
		run = func() { q.pm.meter(task) }
	}
	wrapped := func() {
		defer q.inflight.Done()
		run()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return ErrDraining
	}
	// Count the task before a worker can receive it: a worker that ran it
	// before the Add would drive the counter negative.
	q.inflight.Add(1)
	select {
	case q.tasks <- wrapped:
		return nil
	default:
		q.inflight.Done()
		return ErrSaturated
	}
}

// Backlog reports how many accepted tasks are waiting for a worker.
func (q *Queue) Backlog() int { return len(q.tasks) }

// Draining reports whether Drain has been called.
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// Drain stops admitting new tasks and waits until every already-accepted
// task has finished, or until ctx expires (the remaining tasks keep
// running — cancelling them is the caller's business, via the contexts
// the tasks were built over). Drain is idempotent and safe to call from
// several goroutines; every call waits for completion.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if !q.draining {
		q.draining = true
		close(q.tasks)
	}
	q.mu.Unlock()
	done := make(chan struct{})
	go func() {
		q.inflight.Wait()
		q.workers.Wait()
		close(done)
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// meter wraps one task execution with the pool metrics (shared with
// CollectMetered's instrumentation: same gauge/histogram/counter names).
func (pm PoolMetrics) meter(task func()) {
	pm.QueueDepth.Add(1)
	var t0 time.Time
	if pm.TaskLatency != nil {
		t0 = time.Now()
	}
	task()
	if pm.TaskLatency != nil {
		pm.TaskLatency.RecordDuration(time.Since(t0))
	}
	pm.Tasks.Inc()
	pm.QueueDepth.Add(-1)
}
