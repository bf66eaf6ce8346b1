// Package obs is the repository's observability layer: hierarchical
// wall-clock spans with typed end fields and structured events, both
// delivered to a pluggable Sink. It is stdlib-only and
// built around one invariant: a disabled tracer (a nil *Tracer, or one
// the caller never created) costs nothing on the hot paths — every
// method is nil-safe, and a call such as
//
//	sp.End(obs.Int("conflicts", n), obs.Bool("sat", ok))
//
// performs zero allocations when tracing is off, fields included: the
// tracer copies the fields for its sink only after the disabled check,
// so the variadic slice stays on the caller's stack
// (TestDisabledPathZeroAllocs). Guard with sp.Enabled() only where
// building the fields themselves costs work. The lock pipeline (internal/core), the SAT solver's
// progress callback (internal/sat), the attack suite (internal/attacks)
// and the counting/sampling engines (internal/count, internal/sample)
// all emit through this package; cmd/attack and cmd/obfuslock expose it
// via -trace, -ledger and -pprof. The Rollup sink sums the span stream
// per span name for the run ledger.
package obs

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// fieldKind discriminates the value stored in a Field.
type fieldKind uint8

const (
	kindInt fieldKind = iota
	kindFloat
	kindStr
	kindBool
	kindDur
)

// Field is a typed key/value attached to spans and events. It is a plain
// value struct (no interface boxing) so building one never allocates.
type Field struct {
	Key  string
	kind fieldKind
	num  int64
	fl   float64
	str  string
}

// Int builds an integer field.
func Int(key string, v int64) Field { return Field{Key: key, kind: kindInt, num: v} }

// Float builds a float field.
func Float(key string, v float64) Field { return Field{Key: key, kind: kindFloat, fl: v} }

// Str builds a string field.
func Str(key, v string) Field { return Field{Key: key, kind: kindStr, str: v} }

// Bool builds a boolean field.
func Bool(key string, v bool) Field {
	f := Field{Key: key, kind: kindBool}
	if v {
		f.num = 1
	}
	return f
}

// Dur builds a duration field (serialized as microseconds).
func Dur(key string, d time.Duration) Field { return Field{Key: key, kind: kindDur, num: int64(d)} }

// Value returns the field's value as int64, float64, string, bool or
// time.Duration, for consumers outside the built-in sinks.
func (f Field) Value() any {
	switch f.kind {
	case kindInt:
		return f.num
	case kindFloat:
		return f.fl
	case kindStr:
		return f.str
	case kindBool:
		return f.num != 0
	default:
		return time.Duration(f.num)
	}
}

// SpanData is the sink-facing view of a span.
type SpanData struct {
	ID     uint64
	Parent uint64 // 0 for root spans
	Name   string
	Start  time.Time
	// Duration is set on SpanEnd only.
	Duration time.Duration
	// Fields holds the start fields on SpanStart and the end fields on
	// SpanEnd.
	Fields []Field
}

// Sink receives the span/event stream. Implementations must be safe for
// concurrent use. The tracer hands each call a fields slice of its own,
// which the sink may retain.
type Sink interface {
	SpanStart(sd SpanData)
	SpanEnd(sd SpanData)
	Event(spanID uint64, name string, at time.Time, fields []Field)
}

// Tracer is the root of an observability session. A nil *Tracer is a
// valid, fully disabled tracer.
type Tracer struct {
	sink   Sink
	nextID atomic.Uint64
	pprof  bool
}

// New returns a tracer delivering to sink. A nil sink yields a nil
// (disabled) tracer.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// EnablePprofLabels makes every span tag the current goroutine's pprof
// labels with obs_span=<name> for its duration, so CPU/heap profiles can
// be sliced by lock phase or attack iteration.
func (t *Tracer) EnablePprofLabels() {
	if t != nil {
		t.pprof = true
	}
}

// Enabled reports whether the tracer delivers anywhere.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// Span is one timed unit of work. A nil *Span is valid and inert.
type Span struct {
	t      *Tracer
	parent *Span
	id     uint64
	name   string
	start  time.Time
	ctx    context.Context // pprof label context, when enabled
}

// Span starts a root span.
func (t *Tracer) Span(name string, fields ...Field) *Span {
	if !t.Enabled() {
		return nil
	}
	return t.startSpan(nil, name, fields)
}

// Span starts a child span.
func (s *Span) Span(name string, fields ...Field) *Span {
	if s == nil {
		return nil
	}
	return s.t.startSpan(s, name, fields)
}

func (t *Tracer) startSpan(parent *Span, name string, fields []Field) *Span {
	sp := &Span{t: t, parent: parent, id: t.nextID.Add(1), name: name, start: time.Now()}
	var pid uint64
	if parent != nil {
		pid = parent.id
	}
	if t.pprof {
		sp.ctx = pprof.WithLabels(context.Background(), pprof.Labels("obs_span", name))
		pprof.SetGoroutineLabels(sp.ctx)
	}
	t.sink.SpanStart(SpanData{ID: sp.id, Parent: pid, Name: name, Start: sp.start, Fields: own(fields)})
	return sp
}

// Enabled reports whether events on this span are delivered.
func (s *Span) Enabled() bool { return s != nil }

// End closes the span, recording its duration and any final fields.
func (s *Span) End(fields ...Field) {
	if s == nil {
		return
	}
	var pid uint64
	if s.parent != nil {
		pid = s.parent.id
	}
	if s.t.pprof {
		if s.parent != nil && s.parent.ctx != nil {
			pprof.SetGoroutineLabels(s.parent.ctx)
		} else {
			pprof.SetGoroutineLabels(context.Background())
		}
	}
	s.t.sink.SpanEnd(SpanData{
		ID: s.id, Parent: pid, Name: s.name, Start: s.start,
		Duration: time.Since(s.start), Fields: own(fields),
	})
}

// own copies a call's variadic fields for the sink. Every method copies
// only after its disabled check, so the parameter never escapes and a
// fielded call on a disabled tracer allocates nothing.
func own(fields []Field) []Field { return append([]Field(nil), fields...) }

// Event emits a point-in-time event under the span.
func (s *Span) Event(name string, fields ...Field) {
	if s == nil {
		return
	}
	s.t.sink.Event(s.id, name, time.Now(), own(fields))
}

// Event emits a root-level event (span id 0).
func (t *Tracer) Event(name string, fields ...Field) {
	if !t.Enabled() {
		return
	}
	t.sink.Event(0, name, time.Now(), own(fields))
}
