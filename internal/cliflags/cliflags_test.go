package cliflags

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"obfuslock/internal/core"
	"obfuslock/internal/netlistgen"
	"obfuslock/internal/obs"
)

// startSession parses args through a fresh flag set, as the CLIs do, and
// starts the telemetry session.
func startSession(t *testing.T, args ...string) (*Telemetry, *Session) {
	t.Helper()
	var tele Telemetry
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tele.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s, err := tele.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	return &tele, s
}

// smallLock runs a traced lock of a small circuit.
func smallLock(t *testing.T, tr *obs.Tracer) {
	t.Helper()
	opt := core.DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 1
	opt.Trace = tr
	if _, err := core.Lock(context.Background(), netlistgen.SmallSuite()[1].Build(), opt); err != nil {
		t.Fatal(err)
	}
}

func TestSessionNoFlagsIsDisabled(t *testing.T) {
	_, s := startSession(t)
	defer s.Finish()
	if s.Tracer != nil {
		t.Fatal("no telemetry flags built a live tracer")
	}
	if s.Ledger != nil {
		t.Fatal("no -ledger built a ledger")
	}
	if err := s.WriteLedger(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionTraceAndLedger(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "x.jsonl")
	ledgerPath := filepath.Join(dir, "ledger.json")
	_, s := startSession(t, "-trace", tracePath, "-ledger", ledgerPath)
	smallLock(t, s.Tracer)
	s.Finish()
	if err := s.WriteLedger(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spanEnds := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		if rec["type"] == "span_end" {
			spanEnds++
		}
	}
	if spanEnds == 0 {
		t.Fatal("trace holds no span_end records")
	}

	l := readLedger(t, ledgerPath)
	if l.Schema != obs.LedgerSchema || len(l.Spans) == 0 {
		t.Fatalf("ledger schema %q with %d span totals", l.Schema, len(l.Spans))
	}
	// The rollup counts the spans the trace ended.
	calls := int64(0)
	for _, st := range l.Spans {
		calls += st.Calls
	}
	if calls != int64(spanEnds) {
		t.Fatalf("ledger rolls up %d spans, trace ended %d", calls, spanEnds)
	}
}

// readLedger decodes a written ledger.json.
func readLedger(t *testing.T, path string) obs.Ledger {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var l obs.Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatalf("ledger invalid: %v", err)
	}
	return l
}

// TestLedgerRollupMatchesCollector locks c7552-s at 8 bits with the
// ledger's rollup and a Collector on one tracer: for every span name the
// written ledger's calls and summed integer end fields must equal the
// values computed from the collected spans.
func TestLedgerRollupMatchesCollector(t *testing.T) {
	roll := obs.NewRollup()
	col := obs.NewCollector()
	smallLock(t, obs.New(obs.Multi(roll, col)))
	l := obs.NewLedger("test")
	l.Finish(roll)
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	type totals struct {
		calls  int64
		fields map[string]int64
	}
	want := map[string]*totals{}
	for _, sd := range col.Spans() {
		tt := want[sd.Name]
		if tt == nil {
			tt = &totals{fields: map[string]int64{}}
			want[sd.Name] = tt
		}
		tt.calls++
		for _, f := range sd.Fields {
			if v, ok := f.Value().(int64); ok {
				tt.fields[f.Key] += v
			}
		}
	}
	got := readLedger(t, path).Spans
	if len(got) != len(want) {
		t.Fatalf("ledger has %d span names, collector %d", len(got), len(want))
	}
	for i, st := range got {
		if i > 0 && got[i-1].Name >= st.Name {
			t.Fatalf("ledger spans not sorted by name: %q before %q", got[i-1].Name, st.Name)
		}
		w := want[st.Name]
		if w == nil || st.Calls != w.calls {
			t.Fatalf("span %q: ledger calls %d, collector %+v", st.Name, st.Calls, w)
		}
		if len(st.Fields) != len(w.fields) {
			t.Fatalf("span %q: ledger fields %v, collector %v", st.Name, st.Fields, w.fields)
		}
		for k, v := range w.fields {
			if st.Fields[k] != v {
				t.Fatalf("span %q field %q: ledger %d, collector %d", st.Name, k, st.Fields[k], v)
			}
		}
	}
	if lock := want["lock"]; lock == nil || lock.calls != 1 {
		t.Fatalf("lock span totals %+v, want one call", lock)
	}
}

// TestSessionFinishIdempotent covers the CLIs' exit paths, which call
// Finish and WriteLedger explicitly before os.Exit and again through
// defer. It also pins that -ledger alone rolls up the lock's spans.
func TestSessionFinishIdempotent(t *testing.T) {
	ledgerPath := filepath.Join(t.TempDir(), "ledger.json")
	_, s := startSession(t, "-ledger", ledgerPath)
	smallLock(t, s.Tracer)
	if err := s.WriteLedger(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var l obs.Ledger
	if err := json.Unmarshal(first, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Spans) == 0 {
		t.Fatal("-ledger alone rolled up no spans")
	}
	s.Tracer.Span("late").End()
	if err := s.WriteLedger(); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("second WriteLedger rewrote the ledger")
	}
	s.Finish()
	s.Finish()
}
