package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"obfuslock/internal/exec"
	"obfuslock/internal/experiments"
	"obfuslock/internal/netlistgen"
)

// TestTable1DetMatchesTableIEntry pins the benchmark's composition of the
// layers to the harness behind `attack -table1 -small -det -skews 8
// -maxiter 40`: under the CLI's seeds, a table1-det case must lock to the
// same key length and render the same four attack cells.
func TestTable1DetMatchesTableIEntry(t *testing.T) {
	w, _ := lookupWorkload("table1-det")
	p := &pipeline{ctx: context.Background(), m: newMeter(nil)}
	p.circuits = setup(newMeter(nil), w)
	budget := experiments.Budget{MaxIterations: 40, Workers: 1, Deterministic: true}
	for _, name := range []string{"c7552-s", "max-s"} {
		c := p.circuits[name]
		k := p.runCase(w, 1, name)
		if len(k.failures) > 0 {
			t.Fatalf("%s: %v", name, k.failures)
		}
		row, err := experiments.TableIEntry(context.Background(), netlistgen.SmallSuite()[c.index], 8,
			exec.DeriveSeed(1, c.index), budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{row.SATSub, row.SATWhole, row.AppSATSub, row.AppSATWhole}
		if !reflect.DeepEqual(k.cells, want) || k.res.Report.KeyBits != row.KeyBits {
			t.Errorf("%s: benchmark cells %v with %d key bits, TableIEntry %v with %d",
				name, k.cells, k.res.Report.KeyBits, want, row.KeyBits)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that an untraced run reports
// exactly the end-to-end metrics BENCHMARK.json declares, and a traced run
// exactly the per-layer ones, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	passes := []passStats{{wall: time.Second, lock: time.Second}}
	cases := []*lockCase{{}}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		declared := map[string]bool{}
		for _, m := range want {
			declared[m.Name] = true
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s metric %s: got %+v, want unit %q", kind, m.Name, g, m.Unit)
			}
		}
		for name := range got {
			if !declared[name] {
				t.Errorf("%s metric %s is reported but not declared", kind, name)
			}
		}
	}
	check("end-to-end", endToEnd(passes, []float64{0.1}, cases, 1), spec.EndToEnd)
	check("per-layer", perLayer(newMeter(nil), newMeter(nil), nil, passes, cases), spec.PerLayer)
}
