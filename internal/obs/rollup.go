package obs

import (
	"maps"
	"sort"
	"sync"
	"time"
)

// SpanTotal is the rollup of every completed span of one name.
type SpanTotal struct {
	Name  string `json:"name"`
	Calls int64  `json:"calls"`
	// TotalUS and MaxUS are the summed and the longest span duration,
	// in microseconds (each span truncated as in the JSONL dur_us).
	TotalUS int64 `json:"total_us"`
	MaxUS   int64 `json:"max_us"`
	// Fields sums each integer end field (Int) over the spans; other
	// field kinds are not summed.
	Fields map[string]int64 `json:"fields,omitempty"`
}

// Rollup is a Sink that sums the span stream per span name: calls, total
// and maximum duration, and the sum of each integer end field. It is what
// the run ledger embeds. Events are ignored. After the first span of a
// name with a given set of field keys, recording allocates nothing.
type Rollup struct {
	mu    sync.Mutex
	spans map[string]*SpanTotal
}

// NewRollup returns an empty rollup sink.
func NewRollup() *Rollup { return &Rollup{spans: make(map[string]*SpanTotal)} }

// SpanStart implements Sink.
func (r *Rollup) SpanStart(SpanData) {}

// SpanEnd implements Sink.
func (r *Rollup) SpanEnd(sd SpanData) {
	us := int64(sd.Duration / time.Microsecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.spans[sd.Name]
	if st == nil {
		st = &SpanTotal{Name: sd.Name}
		r.spans[sd.Name] = st
	}
	st.Calls++
	st.TotalUS += us
	st.MaxUS = max(st.MaxUS, us)
	for _, f := range sd.Fields {
		if f.kind != kindInt {
			continue
		}
		if st.Fields == nil {
			st.Fields = make(map[string]int64)
		}
		st.Fields[f.Key] += f.num
	}
}

// Event implements Sink.
func (r *Rollup) Event(uint64, string, time.Time, []Field) {}

// Spans returns a copy of the totals sorted by span name (nil for a nil
// rollup).
func (r *Rollup) Spans() []SpanTotal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanTotal, 0, len(r.spans))
	for _, st := range r.spans {
		cp := *st
		cp.Fields = maps.Clone(st.Fields)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
