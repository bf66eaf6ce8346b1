package obs

import (
	"testing"
	"time"
)

// hotLoop mimics the solver/attack hot-loop instrumentation pattern: a
// span per unit of work with a guarded event, plus the unguarded
// fielded calls the layers make (a child span, events, and span ends
// carrying their counters).
func hotLoop(tr *Tracer, n int) {
	for i := 0; i < n; i++ {
		sp := tr.Span("solve", Int("round", int64(i)))
		if sp.Enabled() {
			sp.Event("conflict", Int("n", int64(i)), Float("rate", 0.5))
		}
		child := sp.Span("propagate", Str("phase", "bcp"))
		child.Event("restart", Int("n", int64(i)))
		child.End(Int("props", int64(i)))
		tr.Event("tick", Int("n", int64(i)))
		sp.End(Int("conflicts", int64(i)), Bool("sat", true))
	}
}

// TestDisabledPathZeroAllocs pins the contract relied on by the solver
// and attack loops: with tracing disabled, span and event calls
// allocate nothing, with or without fields.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var tr *Tracer
	if allocs := testing.AllocsPerRun(1000, func() { hotLoop(tr, 1) }); allocs != 0 {
		t.Fatalf("disabled tracer hot loop allocates %v per op, want 0", allocs)
	}
}

// TestEnabledRecordPathZeroAllocs pins the complementary contract for
// the ledger's rollup: once a span name and its field keys have been
// seen, recording another such span allocates nothing.
func TestEnabledRecordPathZeroAllocs(t *testing.T) {
	r := NewRollup()
	sd := SpanData{Name: "solve", Duration: time.Millisecond,
		Fields: []Field{Int("conflicts", 3), Bool("sat", true)}}
	r.SpanEnd(sd)
	allocs := testing.AllocsPerRun(1000, func() { r.SpanEnd(sd) })
	if allocs != 0 {
		t.Fatalf("rollup record path allocates %v per op, want 0", allocs)
	}
}

// BenchmarkDisabledSpanEvent measures the disabled-sink fast path; run
// with -benchmem to see 0 allocs/op.
func BenchmarkDisabledSpanEvent(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Span("solve")
		if sp.Enabled() {
			sp.Event("conflict", Int("n", int64(i)))
		}
		sp.End()
	}
}

// BenchmarkEnabledSpanEvent is the comparison point: a live collector
// sink (in-memory), amortized per span+event.
func BenchmarkEnabledSpanEvent(b *testing.B) {
	tr := New(Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Span("solve")
		if sp.Enabled() {
			sp.Event("conflict", Int("n", int64(i)))
		}
		sp.End()
	}
}
