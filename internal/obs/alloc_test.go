package obs

import "testing"

// hotLoop mimics the solver/attack hot-loop instrumentation pattern: a
// span per unit of work, a guarded event with fields, counters and
// histogram records.
func hotLoop(tr *Tracer, n int) {
	c := tr.Counter("conflicts")
	h := tr.Histogram("depth")
	for i := 0; i < n; i++ {
		sp := tr.Span("solve")
		if sp.Enabled() {
			sp.Event("conflict", Int("n", int64(i)), Float("rate", 0.5))
		}
		c.Add(1)
		h.Record(int64(i))
		sp.End()
	}
}

// TestDisabledPathZeroAllocs pins the contract relied on by the solver
// and attack loops: with tracing disabled, span/event/counter/
// histogram calls allocate nothing.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var tr *Tracer
	if allocs := testing.AllocsPerRun(1000, func() { hotLoop(tr, 1) }); allocs != 0 {
		t.Fatalf("disabled tracer hot loop allocates %v per op, want 0", allocs)
	}
}

// TestEnabledRecordPathZeroAllocs pins the complementary contract: once
// the metric handles exist, Record/Add themselves stay 0 allocs/op
// even with telemetry ON — the lock-free histogram never allocates per
// observation.
func TestEnabledRecordPathZeroAllocs(t *testing.T) {
	tr := New(Discard)
	c := tr.Counter("conflicts")
	h := tr.Histogram("depth")
	var i int64
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		c.Add(1)
		h.Record(i)
	})
	if allocs != 0 {
		t.Fatalf("enabled metric record path allocates %v per op, want 0", allocs)
	}
}

// BenchmarkHistogramRecord measures the lock-free record hot path; run
// with -benchmem to see 0 allocs/op.
func BenchmarkHistogramRecord(b *testing.B) {
	h := New(Discard).Histogram("bench.lat")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i & 1023))
	}
}

// BenchmarkDisabledHistogramRecord is the disabled (nil handle) side.
func BenchmarkDisabledHistogramRecord(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
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
