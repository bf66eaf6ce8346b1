package service

import (
	"context"
	"errors"
	"sync"

	"obfuslock/internal/exec"
)

// TenantLimits is one tenant's admission quota and budget ceiling. The
// zero value is unlimited — quotas are opt-in per deployment.
type TenantLimits struct {
	// MaxActive caps the tenant's queued-plus-running jobs (0: no cap).
	// Submissions beyond it are rejected with 429/quota_exhausted.
	MaxActive int
	// MaxTimeoutMS caps (and, for jobs that ask for none, imposes) the
	// per-job wall clock in milliseconds (0: no ceiling).
	MaxTimeoutMS int64
	// MaxConflicts caps (and defaults) the per-solve conflict budget
	// (0: no ceiling).
	MaxConflicts int64
}

// Clamp applies the ceiling to a requested budget: requests above a cap
// are lowered to it, and absent requests inherit the cap (an "up to"
// semantics — a tenant with a 30s ceiling gets 30s when asking for
// nothing, 10s when asking for 10s, 30s when asking for a minute).
func (tl TenantLimits) Clamp(b Budget) Budget {
	if tl.MaxTimeoutMS > 0 && (b.TimeoutMS == 0 || b.TimeoutMS > tl.MaxTimeoutMS) {
		b.TimeoutMS = tl.MaxTimeoutMS
	}
	if tl.MaxConflicts > 0 && (b.MaxConflicts == 0 || b.MaxConflicts > tl.MaxConflicts) {
		b.MaxConflicts = tl.MaxConflicts
	}
	return b
}

// Scheduler is the admission-controlled execution stage: an exec.Queue
// (bounded backlog, fail-fast saturation) fronted by per-tenant
// concurrency quotas. Admission and slot-release are explicit so the
// server can reserve a slot before the job exists and reclaim it exactly
// once, whatever path the job takes through its lifecycle.
type Scheduler struct {
	q   *exec.Queue
	mu  sync.Mutex
	act map[string]int
	lim map[string]TenantLimits
	def TenantLimits
}

// NewScheduler builds a scheduler with the given worker count (resolved
// like exec.Workers), backlog depth, default limits and per-tenant
// overrides. pm is the optional pool telemetry (queue-depth gauge,
// task latency histogram).
func NewScheduler(workers, depth int, def TenantLimits, overrides map[string]TenantLimits, pm exec.PoolMetrics) *Scheduler {
	lim := make(map[string]TenantLimits, len(overrides))
	for k, v := range overrides {
		lim[k] = v
	}
	return &Scheduler{
		q:   exec.NewQueue(workers, depth, pm),
		act: map[string]int{},
		lim: lim,
		def: def,
	}
}

// Limits resolves the tenant's effective limits.
func (s *Scheduler) Limits(tenant string) TenantLimits {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tl, ok := s.lim[tenant]; ok {
		return tl
	}
	return s.def
}

// Admit reserves one active-job slot for the tenant, or explains why it
// cannot: quota exhausted (429). The caller must pair every successful
// Admit with exactly one Release.
func (s *Scheduler) Admit(tenant string) *Error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tl, ok := s.lim[tenant]
	if !ok {
		tl = s.def
	}
	if tl.MaxActive > 0 && s.act[tenant] >= tl.MaxActive {
		return Errorf(CodeQuotaExhausted, "tenant %q has %d active jobs (quota %d)", tenant, s.act[tenant], tl.MaxActive)
	}
	s.act[tenant]++
	return nil
}

// Release returns a previously admitted slot.
func (s *Scheduler) Release(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.act[tenant] > 0 {
		s.act[tenant]--
	}
	if s.act[tenant] == 0 {
		delete(s.act, tenant)
	}
}

// Active reports the tenant's queued-plus-running job count.
func (s *Scheduler) Active(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.act[tenant]
}

// Submit hands a task to the queue, mapping the exec-layer errors onto
// the wire vocabulary: a full backlog is 429/queue_full backpressure, a
// draining queue is 503/draining.
func (s *Scheduler) Submit(task func()) *Error {
	switch err := s.q.Submit(task); {
	case err == nil:
		return nil
	case errors.Is(err, exec.ErrSaturated):
		return Errorf(CodeQueueFull, "job queue is full (%d tasks backlogged); retry later", s.q.Backlog())
	case errors.Is(err, exec.ErrDraining):
		return Errorf(CodeDraining, "server is draining; not admitting jobs")
	default:
		return Errorf(CodeFailed, "scheduler: %v", err)
	}
}

// Backlog reports how many accepted tasks await a worker.
func (s *Scheduler) Backlog() int { return s.q.Backlog() }

// Drain stops admission and waits (bounded by ctx) for the backlog and
// in-flight tasks to finish.
func (s *Scheduler) Drain(ctx context.Context) error { return s.q.Drain(ctx) }
