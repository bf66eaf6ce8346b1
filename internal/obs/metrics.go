package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// MetricSnapshot is the sink-facing view of one metric.
type MetricSnapshot struct {
	Name string
	// Kind is "counter" or "histogram".
	Kind string
	// Value is the counter total.
	Value float64
	// Count/Sum/Min/Max summarize histogram observations.
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	// P50/P90/P99 are quantile estimates interpolated from the
	// histogram's log-2 buckets (zero for counters).
	P50 float64
	P90 float64
	P99 float64
}

// Counter is a monotonically increasing metric. A nil *Counter is valid
// and inert.
type Counter struct {
	name string
	v    atomic.Int64
}

// Counter returns the named counter, creating it on first use. Disabled
// tracers return nil (whose methods are no-ops).
func (t *Tracer) Counter(name string) *Counter {
	if !t.Enabled() {
		return nil
	}
	return t.reg.Counter(name)
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket 0 holds
// observations <= 0, bucket i >= 1 holds [2^(i-1), 2^i - 1]. 64 buckets
// cover the whole non-negative int64 range, so the layout never resizes
// and the record path never branches on configuration.
const histBuckets = 64

// Histogram summarizes a stream of integer observations (typically
// microsecond latencies, depths, or per-step counts) in fixed log-2
// buckets. All updates are lock-free atomics: Record never allocates and
// never takes a lock, so it is safe on solver hot paths at any
// concurrency. A nil *Histogram is valid and inert.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 until first Record
	max     atomic.Int64 // math.MinInt64 until first Record
	buckets [histBuckets]atomic.Int64
}

func newHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Histogram returns the named histogram, creating it on first use.
func (t *Tracer) Histogram(name string) *Histogram {
	if !t.Enabled() {
		return nil
	}
	return t.reg.Histogram(name)
}

// bucketOf maps an observation to its log-2 bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Record adds one observation. It is the zero-alloc, lock-free hot path.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// RecordDuration records d in microseconds, the repository's canonical
// latency unit (matching the *_us metric naming and JSONL dur_us).
func (h *Histogram) RecordDuration(d time.Duration) {
	h.Record(int64(d / time.Microsecond))
}

// Observe records a float observation by rounding to the nearest
// integer. Prefer Record/RecordDuration; Observe exists for callers with
// naturally float-valued inputs.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.Record(int64(math.Round(v)))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the log-2 bucket holding the q-th observation,
// clamped to the observed min/max. With no observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.snapshot().quantile(q)
}

// histSnap is a consistent-enough copy of the histogram's atomics; each
// field is loaded atomically, so a snapshot taken mid-Record may be off
// by the in-flight observation but is never torn.
type histSnap struct {
	count, sum, min, max int64
	buckets              [histBuckets]int64
}

func (h *Histogram) snapshot() histSnap {
	var s histSnap
	s.count = h.count.Load()
	s.sum = h.sum.Load()
	s.min = h.min.Load()
	s.max = h.max.Load()
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
	}
	return s
}

// bucketBounds returns the inclusive value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, math.MaxInt64
	}
	return lo, int64(1)<<i - 1
}

func (s histSnap) quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based.
	rank := int64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		n := s.buckets[i]
		if n == 0 {
			continue
		}
		if seen+n < rank {
			seen += n
			continue
		}
		lo, hi := bucketBounds(i)
		// Linear interpolation within the bucket by intra-bucket rank.
		frac := float64(rank-seen-1) / float64(n)
		v := float64(lo) + frac*float64(hi-lo)
		// Clamp to the observed range: the first and last buckets are
		// partially filled by definition.
		if v < float64(s.min) {
			v = float64(s.min)
		}
		if v > float64(s.max) {
			v = float64(s.max)
		}
		return v
	}
	return float64(s.max)
}

// metricSnapshot renders the histogram as a MetricSnapshot.
func (h *Histogram) metricSnapshot() MetricSnapshot {
	s := h.snapshot()
	ms := MetricSnapshot{Name: h.name, Kind: "histogram", Count: s.count, Sum: float64(s.sum)}
	if s.count > 0 {
		ms.Min = float64(s.min)
		ms.Max = float64(s.max)
		ms.P50 = s.quantile(0.50)
		ms.P90 = s.quantile(0.90)
		ms.P99 = s.quantile(0.99)
	}
	return ms
}

// Metrics snapshots every registered metric, sorted by name.
func (t *Tracer) Metrics() []MetricSnapshot {
	if !t.Enabled() {
		return nil
	}
	return t.reg.Snapshot()
}
