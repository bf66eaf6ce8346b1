package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Span("root", Int("i", 1))
	if sp.Enabled() {
		t.Fatal("nil span reports enabled")
	}
	child := sp.Span("child")
	child.Event("e", Str("k", "v"))
	child.End()
	sp.End()
	tr.Event("orphan")
	if New(nil) != nil {
		t.Fatal("New(nil) should return a disabled (nil) tracer")
	}
}

func TestCollectorHierarchy(t *testing.T) {
	col := NewCollector()
	tr := New(col)
	root := tr.Span("lock", Str("circuit", "c17"))
	build := root.Span("lock.build_l")
	build.Event("attach", Int("n", 1), Float("gain_bits", 2.5))
	build.Event("attach", Int("n", 2), Float("gain_bits", 1.25))
	build.End(Int("attachments", 2))
	root.End()

	spans := col.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "lock.build_l" || spans[1].Name != "lock" {
		t.Fatalf("span order: %q then %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent=%d, root id=%d", spans[0].Parent, spans[1].ID)
	}
	ev := col.EventsNamed("attach")
	if len(ev) != 2 {
		t.Fatalf("got %d attach events, want 2", len(ev))
	}
	if ev[0].SpanID != spans[0].ID {
		t.Fatalf("event span=%d, want %d", ev[0].SpanID, spans[0].ID)
	}
	if ev[1].Fields["gain_bits"] != 1.25 {
		t.Fatalf("gain_bits = %v", ev[1].Fields["gain_bits"])
	}
}

func TestJSONLValidAndComplete(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONL(&buf))
	root := tr.Span("attack.sat", Int("key_bits", 12))
	root.Event("dip", Int("iter", 1), Dur("elapsed", 1500*time.Microsecond),
		Bool("exact", false), Float("rate", 0.5), Str("phase", "solve"))
	root.End(Bool("exact", true))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3:\n%s", len(lines), buf.String())
	}
	types := map[string]int{}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", ln, err)
		}
		types[m["type"].(string)]++
	}
	if types["span_start"] != 1 || types["span_end"] != 1 || types["event"] != 1 {
		t.Fatalf("record mix = %v", types)
	}

	// Spot-check the event record's field encoding.
	var ev map[string]any
	json.Unmarshal([]byte(lines[1]), &ev)
	fields := ev["fields"].(map[string]any)
	if fields["iter"] != float64(1) || fields["elapsed"] != float64(1500) ||
		fields["exact"] != false || fields["rate"] != 0.5 || fields["phase"] != "solve" {
		t.Fatalf("event fields = %v", fields)
	}
}

func TestJSONLNonFiniteFloats(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONL(&buf))
	tr.Span("x", Float("inf", math.Inf(1)), Float("nan", math.NaN())).End()
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSON with non-finite float %q: %v", ln, err)
		}
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	tr := New(Multi(a, nil, b))
	tr.Span("s").End()
	if len(a.Spans()) != 1 || len(b.Spans()) != 1 {
		t.Fatalf("multi fan-out: a=%d b=%d", len(a.Spans()), len(b.Spans()))
	}
	if Multi() != nil {
		t.Fatal("Multi() should collapse to nil")
	}
	if Multi(nil, a) != Sink(a) {
		t.Fatal("Multi with one live sink should return it directly")
	}
}

// TestConcurrentSpansFanIn drives one tracer from many goroutines, the
// shape a parallel sweep produces, and checks the collector sees every
// span and event through the interleaving.
func TestConcurrentSpansFanIn(t *testing.T) {
	col := NewCollector()
	tr := New(col)
	const workers = 8
	const spansPer = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spansPer; i++ {
				sp := tr.Span("cell", Int("worker", int64(w)))
				sp.Event("tick", Int("i", int64(i)))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	ended := 0
	for _, sd := range col.Spans() {
		if sd.Name == "cell" {
			ended++
		}
	}
	if ended != workers*spansPer {
		t.Fatalf("collector saw %d ended cell spans, want %d", ended, workers*spansPer)
	}
	if got := len(col.EventsNamed("tick")); got != workers*spansPer {
		t.Fatalf("collector saw %d tick events, want %d", got, workers*spansPer)
	}
}
