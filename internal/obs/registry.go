package obs

import (
	"sort"
	"sync"
)

// Registry is a global-free namespace of counters and histograms.
// Every Tracer owns one; NewWithRegistry lets the caller build it first
// and hand it to span sinks. Lookup takes a mutex; the returned metric
// handles are lock-free, so callers cache them outside hot loops. A nil *Registry is valid and inert: every lookup returns a
// nil handle whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h := r.hists[name]
	if h == nil {
		h = newHistogram(name)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every registered metric, sorted by name, so two
// snapshots of the same registry state are identical — the property the
// metrics.json and the ledger rely on.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]MetricSnapshot, 0, len(r.counters)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, MetricSnapshot{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()
	// Histogram snapshots walk 64 buckets each; take them outside the
	// registry lock so concurrent metric creation is never stalled.
	for _, h := range hists {
		out = append(out, h.metricSnapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
