package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 62, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramSnapshotAndQuantiles(t *testing.T) {
	h := newHistogram("lat.us")
	// 100 observations 1..100: exact quantiles are 50, 90, 99; the log-2
	// estimate must land inside the right bucket's range.
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	ms := h.metricSnapshot()
	if ms.Count != 100 || ms.Sum != 5050 || ms.Min != 1 || ms.Max != 100 {
		t.Fatalf("snapshot = %+v", ms)
	}
	// p50=50 lives in bucket [32,63]; p90=90 and p99=99 in [64,100].
	if ms.P50 < 32 || ms.P50 > 63 {
		t.Errorf("p50 = %v, want within [32,63]", ms.P50)
	}
	if ms.P90 < 64 || ms.P90 > 100 {
		t.Errorf("p90 = %v, want within [64,100]", ms.P90)
	}
	if ms.P99 < ms.P90 || ms.P99 > 100 {
		t.Errorf("p99 = %v, want within [p90,100]", ms.P99)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 {
		t.Fatal("nil histogram not inert")
	}
	nilH.Record(1)
	nilH.RecordDuration(time.Second)

	h := newHistogram("h")
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Record(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("single-value quantile(%v) = %v, want 42", q, got)
		}
	}
	h2 := newHistogram("h2")
	h2.Record(-7) // clamps into bucket 0, min tracks the true value
	ms := h2.metricSnapshot()
	if ms.Min != -7 || ms.Max != -7 || ms.Count != 1 {
		t.Fatalf("negative observation snapshot = %+v", ms)
	}
	if q := h2.Quantile(0.5); q != -7 {
		t.Fatalf("negative quantile = %v, want clamped to -7", q)
	}
}

func TestHistogramRecordDuration(t *testing.T) {
	h := newHistogram("d")
	h.RecordDuration(1500 * time.Microsecond)
	ms := h.metricSnapshot()
	if ms.Count != 1 || ms.Sum != 1500 {
		t.Fatalf("duration recorded as %+v, want 1500us", ms)
	}
}

func TestRegistryStandalone(t *testing.T) {
	var nilR *Registry
	if nilR.Counter("c") != nil || nilR.Gauge("g") != nil || nilR.Histogram("h") != nil {
		t.Fatal("nil registry returned live handles")
	}
	if nilR.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}

	r := NewRegistry()
	r.Counter("z.count").Add(3)
	r.Gauge("a.depth").Set(2)
	r.Histogram("m.lat").Record(10)
	if r.Counter("z.count") != r.Counter("z.count") {
		t.Fatal("counter identity not stable by name")
	}
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if len(s1) != 3 {
		t.Fatalf("got %d metrics, want 3", len(s1))
	}
	// Deterministic: sorted by name, repeatable.
	if s1[0].Name != "a.depth" || s1[1].Name != "m.lat" || s1[2].Name != "z.count" {
		t.Fatalf("snapshot order: %v %v %v", s1[0].Name, s1[1].Name, s1[2].Name)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("snapshots differ at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func TestTracerRegistryAccessor(t *testing.T) {
	var nilT *Tracer
	if nilT.Registry() != nil {
		t.Fatal("nil tracer registry not nil")
	}
	tr := New(Discard)
	reg := tr.Registry()
	if reg == nil {
		t.Fatal("enabled tracer has nil registry")
	}
	reg.Counter("via.registry").Inc()
	if tr.Counter("via.registry").Value() != 1 {
		t.Fatal("tracer and registry do not share the metric namespace")
	}
}

func TestGaugeAdd(t *testing.T) {
	g := &Gauge{name: "depth"}
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
	var nilG *Gauge
	nilG.Add(1) // must not panic
}

// TestConcurrentMetricRecording hammers one histogram, gauge and
// counter from many goroutines; run under -race this is the
// concurrency proof for the lock-free record paths, and the final
// totals prove no update was lost.
func TestConcurrentMetricRecording(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("conc.lat")
			g := r.Gauge("conc.depth")
			c := r.Counter("conc.total")
			for i := 0; i < perWorker; i++ {
				h.Record(int64(i%1000 + 1))
				g.Add(1)
				g.Add(-1)
				c.Inc()
				if i%512 == 0 {
					r.Snapshot() // concurrent snapshots must be safe too
				}
			}
		}(w)
	}
	wg.Wait()
	h := r.Histogram("conc.lat")
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	s := h.snapshot()
	var bucketTotal int64
	for _, n := range s.buckets {
		bucketTotal += n
	}
	if bucketTotal != workers*perWorker {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*perWorker)
	}
	if s.min != 1 || s.max != 1000 {
		t.Fatalf("min/max = %d/%d, want 1/1000", s.min, s.max)
	}
	if got := r.Counter("conc.total").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("conc.depth").Value(); got != 0 {
		t.Fatalf("gauge = %v, want 0", got)
	}
}

func TestFlightRecorderRingAndDump(t *testing.T) {
	fl := NewFlight(8)
	tr := New(fl)
	for i := 0; i < 10; i++ {
		sp := tr.Span("work", Int("i", int64(i)))
		sp.Event("tick")
		sp.End()
	}
	// 30 records through an 8-deep ring: only the last 8 survive.
	if fl.Len() != 8 {
		t.Fatalf("flight holds %d records, want 8", fl.Len())
	}
	var buf bytes.Buffer
	n, err := fl.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("dump has %d lines, want 8", len(lines))
	}
	var prevSeq float64
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid flight JSONL %q: %v", ln, err)
		}
		seq := m["seq"].(float64)
		if seq <= prevSeq {
			t.Fatalf("dump not oldest-first: seq %v after %v", seq, prevSeq)
		}
		prevSeq = seq
	}
	// The newest record is the final span_end (seq 30).
	var last map[string]any
	json.Unmarshal([]byte(lines[len(lines)-1]), &last)
	if last["type"] != "span_end" || last["seq"].(float64) != 30 {
		t.Fatalf("newest record = %v", last)
	}

	var nilF *Flight
	if nilF.Len() != 0 {
		t.Fatal("nil flight not inert")
	}
	if n, err := nilF.WriteTo(io.Discard); n != 0 || err != nil {
		t.Fatal("nil flight WriteTo not inert")
	}
}

func TestFlightCopiesFields(t *testing.T) {
	fl := NewFlight(4)
	fields := []Field{Int("i", 1)}
	fl.Event(1, "e", time.Now(), fields)
	fields[0] = Int("i", 99)
	var buf bytes.Buffer
	fl.WriteTo(&buf)
	if !strings.Contains(buf.String(), `"i":1`) {
		t.Fatalf("flight aliased caller fields: %s", buf.String())
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	tr := New(Discard)
	tr.Counter("runs").Inc()
	tr.Histogram("lat.us").Record(50)

	l := NewLedger("obfuslock-test")
	l.Finish(tr)

	if l.Schema != LedgerSchema || l.Tool != "obfuslock-test" {
		t.Fatalf("header = %+v", l)
	}
	if l.GoVersion == "" || l.GOOS == "" || l.BuildRevision == "" {
		t.Fatalf("build identity missing: %+v", l)
	}
	if l.End.Before(l.Start) || l.WallSeconds < 0 {
		t.Fatalf("timing mangled: %+v", l)
	}
	if len(l.Metrics) != 2 || l.Metrics[0].Name != "lat.us" || l.Metrics[1].Name != "runs" {
		t.Fatalf("metrics = %+v", l.Metrics)
	}

	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Ledger
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("ledger.json invalid: %v", err)
	}
	if back.Schema != LedgerSchema || back.Tool != l.Tool || len(back.Metrics) != len(l.Metrics) {
		t.Fatalf("round trip = %+v", back)
	}
	if back.PeakRSSBytes == 0 && peakRSSBytes() != 0 {
		t.Fatal("peak RSS dropped in round trip")
	}
}

func TestLedgerNilTracer(t *testing.T) {
	l := NewLedger("t")
	l.Finish(nil)
	if len(l.Metrics) != 0 {
		t.Fatalf("nil tracer produced metrics: %+v", l.Metrics)
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	tr := New(Discard)
	tr.Counter("sat.conflicts").Add(11)
	tr.Gauge("pool.depth").Set(2)
	tr.Histogram("dip.us").Record(100)
	fl := NewFlight(16)
	fl.Event(1, "dip", time.Now(), []Field{Int("iter", 3)})

	srv := httptest.NewServer(newDebugMux(tr, fl))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	text, ct := get("/metrics")
	if !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"dip.us{kind=histogram} count=1", "p50=100",
		"pool.depth{kind=gauge} 2", "sat.conflicts{kind=counter} 11",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Ordered: dip.us before pool.depth before sat.conflicts.
	if d, p := strings.Index(text, "dip.us"), strings.Index(text, "pool.depth"); d > p {
		t.Fatalf("/metrics not name-ordered:\n%s", text)
	}

	jsonBody, ct := get("/metrics?format=json")
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("/metrics?format=json content type = %q", ct)
	}
	var ms []LedgerMetric
	if err := json.Unmarshal([]byte(jsonBody), &ms); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, jsonBody)
	}
	if len(ms) != 3 || ms[0].Name != "dip.us" || ms[0].P99 != 100 {
		t.Fatalf("metrics JSON = %+v", ms)
	}

	flight, _ := get("/flight")
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(flight)), &rec); err != nil {
		t.Fatalf("/flight invalid JSONL: %v\n%s", err, flight)
	}
	if rec["name"] != "dip" {
		t.Fatalf("/flight record = %v", rec)
	}

	if body, _ := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestListenDebugPicksPort(t *testing.T) {
	addr, err := ListenDebug("127.0.0.1:0", New(Discard), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestStartProfilesWritesAllThree(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "prof")
	stop, err := StartProfiles(prefix)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile is not empty.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof", ".allocs.pprof"} {
		st, err := os.Stat(prefix + suffix)
		if err != nil {
			t.Fatalf("missing profile %s: %v", suffix, err)
		}
		if suffix != ".cpu.pprof" && st.Size() == 0 {
			t.Fatalf("profile %s is empty", suffix)
		}
	}
}

func TestSpanDurationsBridge(t *testing.T) {
	reg := NewRegistry()
	tr := New(Multi(Discard, NewSpanDurations(reg)))
	tr.Span("lock.cec").End()
	tr.Span("lock.cec").End()
	tr.Span("attack.sat").End()
	h := reg.Histogram("span.lock.cec_us")
	if h.Count() != 2 {
		t.Fatalf("span.lock.cec_us count = %d, want 2", h.Count())
	}
	if reg.Histogram("span.attack.sat_us").Count() != 1 {
		t.Fatal("attack.sat span not bridged")
	}
	if NewSpanDurations(nil) != nil {
		t.Fatal("nil registry should yield nil sink")
	}
}
