package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestRollupSumsPerSpanName(t *testing.T) {
	r := NewRollup()
	r.SpanEnd(SpanData{Name: "cec.check", Duration: 3 * time.Millisecond,
		Fields: []Field{Int("conflicts", 5), Bool("decided", true), Str("mode", "swept")}})
	r.SpanEnd(SpanData{Name: "cec.check", Duration: 1500 * time.Microsecond,
		Fields: []Field{Int("conflicts", 7), Dur("budget", time.Second)}})
	r.SpanEnd(SpanData{Name: "attack.sat", Duration: 10 * time.Microsecond})
	r.SpanStart(SpanData{Name: "open"})
	r.Event(1, "dip", time.Now(), []Field{Int("iter", 1)})

	got := r.Spans()
	if len(got) != 2 || got[0].Name != "attack.sat" || got[1].Name != "cec.check" {
		t.Fatalf("spans = %+v, want attack.sat then cec.check", got)
	}
	if a := got[0]; a.Calls != 1 || a.TotalUS != 10 || a.MaxUS != 10 || a.Fields != nil {
		t.Fatalf("attack.sat = %+v", a)
	}
	c := got[1]
	if c.Calls != 2 || c.TotalUS != 4500 || c.MaxUS != 3000 {
		t.Fatalf("cec.check = %+v", c)
	}
	if len(c.Fields) != 1 || c.Fields["conflicts"] != 12 {
		t.Fatalf("cec.check fields = %v, want only conflicts=12", c.Fields)
	}
	// Spans returns a copy: later spans do not change it.
	c.Fields["conflicts"] = 0
	r.SpanEnd(SpanData{Name: "cec.check", Fields: []Field{Int("conflicts", 1)}})
	if again := r.Spans()[1]; again.Calls != 3 || again.Fields["conflicts"] != 13 {
		t.Fatalf("cec.check after a third span = %+v", again)
	}
	var nilR *Rollup
	if nilR.Spans() != nil {
		t.Fatal("nil rollup returned spans")
	}
}

// TestConcurrentMetricRecording ends spans of two names from many
// goroutines into one rollup; run under -race this is the concurrency
// proof for the record path, and the final totals prove no update was
// lost.
func TestConcurrentMetricRecording(t *testing.T) {
	r := NewRollup()
	tr := New(r)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Span("conc.cell").End(Int("n", 1), Int("i", int64(i)))
				if i%512 == 0 {
					tr.Span("conc.snapshot").End()
					r.Spans() // concurrent snapshots must be safe too
				}
			}
		}()
	}
	wg.Wait()
	got := r.Spans()
	if len(got) != 2 || got[0].Name != "conc.cell" {
		t.Fatalf("spans = %+v", got)
	}
	c := got[0]
	if c.Calls != workers*perWorker || c.Fields["n"] != workers*perWorker ||
		c.Fields["i"] != workers*perWorker*(perWorker-1)/2 {
		t.Fatalf("conc.cell = %+v", c)
	}
	if s := got[1]; s.Calls != workers*((perWorker+511)/512) {
		t.Fatalf("conc.snapshot calls = %d", s.Calls)
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	r := NewRollup()
	tr := New(r)
	tr.Span("run").End()
	tr.Span("lock").End()

	l := NewLedger("obfuslock-test")
	l.Finish(r)

	if l.Schema != LedgerSchema || l.Tool != "obfuslock-test" {
		t.Fatalf("header = %+v", l)
	}
	if l.GoVersion == "" || l.GOOS == "" || l.BuildRevision == "" {
		t.Fatalf("build identity missing: %+v", l)
	}
	if l.End.Before(l.Start) || l.WallSeconds < 0 {
		t.Fatalf("timing mangled: %+v", l)
	}
	if len(l.Spans) != 2 || l.Spans[0].Name != "lock" || l.Spans[1].Name != "run" {
		t.Fatalf("spans = %+v", l.Spans)
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
	if back.Schema != LedgerSchema || back.Tool != l.Tool || len(back.Spans) != len(l.Spans) {
		t.Fatalf("round trip = %+v", back)
	}
	if back.PeakRSSBytes == 0 && peakRSSBytes() != 0 {
		t.Fatal("peak RSS dropped in round trip")
	}
}

func TestLedgerNilTracer(t *testing.T) {
	l := NewLedger("t")
	l.Finish(nil)
	if l.Spans != nil {
		t.Fatalf("nil rollup produced spans: %+v", l.Spans)
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
