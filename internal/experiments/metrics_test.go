package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"obfuslock/internal/netlistgen"
	"obfuslock/internal/obs"
)

func TestWriteMetricsJSON(t *testing.T) {
	rows := []TableIRow{
		{
			Bench: "adder", Nodes: 120, SkewBits: 8.4, KeyBits: 16,
			LockTime: 1500 * time.Millisecond,
			SATSub:   "TO", SATWhole: "TO", AppSATSub: "wrong", AppSATWhole: "wrong",
		},
		{
			Bench: "mult", Nodes: 300, SkewBits: 12.1, KeyBits: 20,
			LockTime: 2 * time.Second,
			SATSub:   "3.5", SATWhole: "TO", AppSATSub: "wrong", AppSATWhole: "TO",
		},
	}
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var mf MetricsFile
	if err := json.Unmarshal(buf.Bytes(), &mf); err != nil {
		t.Fatalf("metrics.json is not valid JSON: %v\n%s", err, buf.String())
	}
	if mf.Schema != MetricsSchema {
		t.Fatalf("schema %q, want %q", mf.Schema, MetricsSchema)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil || len(top) != 2 {
		t.Fatalf("metrics.json top-level keys = %v (%v), want schema and rows", top, err)
	}
	if len(mf.Rows) != 2 {
		t.Fatalf("got %d rows", len(mf.Rows))
	}
	r := mf.Rows[0]
	if r.Bench != "adder" || r.KeyBits != 16 || r.LockSeconds != 1.5 {
		t.Fatalf("row mangled: %+v", r)
	}
	for _, cellKey := range []string{"sat_sub", "sat_whole", "appsat_sub", "appsat_whole"} {
		if _, ok := r.Attacks[cellKey]; !ok {
			t.Fatalf("missing attack cell %q", cellKey)
		}
	}
}

func TestWriteMetricsJSONNilTracerEmptyRows(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var mf MetricsFile
	if err := json.Unmarshal(buf.Bytes(), &mf); err != nil {
		t.Fatal(err)
	}
	if mf.Schema != MetricsSchema || len(mf.Rows) != 0 {
		t.Fatalf("unexpected document: %+v", mf)
	}
}

func TestTableIEntryTraced(t *testing.T) {
	col := obs.NewCollector()
	budget := quickBudget()
	budget.Trace = obs.New(col)
	b := netlistgen.SmallSuite()[1]
	if _, err := TableIEntry(context.Background(), b, 8, 1, budget, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := col.SpanNamed("lock"); !ok {
		t.Fatal("no lock span recorded")
	}
	cells := 0
	for _, sd := range col.Spans() {
		if sd.Name == "table1.cell" {
			cells++
		}
	}
	if cells != 4 {
		t.Fatalf("got %d completed table1.cell spans, want 4", cells)
	}
	attacks := map[string]bool{}
	for _, sd := range col.Started() {
		if sd.Name != "table1.cell" {
			continue
		}
		for _, f := range sd.Fields {
			if f.Key == "attack" {
				attacks[f.Value().(string)] = true
			}
		}
	}
	for _, want := range []string{"sat-sub", "sat-whole", "appsat-sub", "appsat-whole"} {
		if !attacks[want] {
			t.Fatalf("missing cell span for attack %q (have %v)", want, attacks)
		}
	}
}
