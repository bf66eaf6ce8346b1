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

	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var l obs.Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatalf("ledger invalid: %v", err)
	}
	hists := 0
	for _, m := range l.Metrics {
		if m.Kind == "histogram" && m.Count > 0 {
			hists++
		}
	}
	if l.Schema != obs.LedgerSchema || hists == 0 {
		t.Fatalf("ledger schema %q with %d histograms", l.Schema, hists)
	}
}

// TestSessionFinishIdempotent covers the CLIs' exit paths, which call
// Finish and WriteLedger explicitly before os.Exit and again through
// defer. It also pins that -ledger alone records span histograms.
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
	if len(l.Metrics) == 0 {
		t.Fatal("-ledger alone recorded no metrics")
	}
	s.Tracer.Counter("late").Inc()
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
