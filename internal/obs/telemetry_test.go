package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
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
	if nilR.Counter("c") != nil || nilR.Histogram("h") != nil {
		t.Fatal("nil registry returned live handles")
	}
	if nilR.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}

	r := NewRegistry()
	r.Counter("z.count").Add(3)
	r.Histogram("a.depth").Record(2)
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

// TestConcurrentMetricRecording hammers one histogram and one
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
			c := r.Counter("conc.total")
			for i := 0; i < perWorker; i++ {
				h.Record(int64(i%1000 + 1))
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
