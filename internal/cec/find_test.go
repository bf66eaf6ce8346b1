package cec

import (
	"context"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/exec"
	"obfuslock/internal/netlistgen"
	"obfuslock/internal/obs"
)

// spanFields returns the end fields of the first span with the given name.
func spanFields(t *testing.T, col *obs.Collector, name string) map[string]any {
	t.Helper()
	sd, ok := col.SpanNamed(name)
	if !ok {
		t.Fatalf("no %s span recorded", name)
	}
	m := map[string]any{}
	for _, f := range sd.Fields {
		m[f.Key] = f.Value()
	}
	return m
}

// multiplierFixture returns an array multiplier as the spec graph and its
// AND-lowered copy as the graph to search, with the spec set to a middle
// product bit. No node of the two is structurally shared, so a monolithic
// miter on the bit is hard, yet every node has an equivalent partner for
// a sweep to merge.
func multiplierFixture() (g, specG *aig.AIG, spec, want aig.Lit) {
	const n = 8
	specG = netlistgen.Multiplier(n)
	g = specG.LowerToAnd()
	return g, specG, specG.Output(n), g.Output(n)
}

// A candidate the quick query cannot settle goes to the swept proof.
func TestFindNodeEscalatesToSweptProof(t *testing.T) {
	g, specG, spec, want := multiplierFixture()
	col := obs.NewCollector()
	opt := DefaultFindOptions()
	opt.Trace = obs.New(col)
	lit, v := FindNode(context.Background(), g, specG, spec, opt)
	if v != Found {
		t.Fatalf("verdict %v, want found", v)
	}
	if lit.Regular() != want.Regular() {
		t.Fatalf("found %v, want the product bit %v", lit, want)
	}
	f := spanFields(t, col, "cec.find_node")
	if f["verdict"] != "found" || f["found"] != true {
		t.Fatalf("span fields %v", f)
	}
	if f["swept_proofs"].(int64) < 1 {
		t.Fatalf("no swept proof ran (fields %v); the fixture no longer exercises the escalation", f)
	}
}

// A scan the budget leaves undecided reports Undecided, and raising the
// budget on the same query then decides it.
func TestFindNodeBudgetUndecided(t *testing.T) {
	g, specG, spec, _ := multiplierFixture()
	opt := DefaultFindOptions()
	opt.Budget = exec.WithConflicts(1)
	if _, v := FindNode(context.Background(), g, specG, spec, opt); v != Undecided {
		t.Fatalf("verdict %v under a 1-conflict budget, want undecided", v)
	}
	opt.Budget = DefaultFindOptions().Budget
	if _, v := FindNode(context.Background(), g, specG, spec, opt); v != Found {
		t.Fatalf("verdict %v, want found", v)
	}
}

// Refuted is a proof over every node: a spec no node computes.
func TestFindNodeRefuted(t *testing.T) {
	g := aig.New()
	a, b, c := g.AddInput("a"), g.AddInput("b"), g.AddInput("c")
	g.AddOutput(g.Maj(a, b, c), "m")
	specG := aig.New()
	sa, sb, sc := specG.AddInput("a"), specG.AddInput("b"), specG.AddInput("c")
	spec := specG.Xor(specG.Xor(sa, sb), sc)
	specG.AddOutput(spec, "p")
	if _, v := FindNode(context.Background(), g, specG, spec, DefaultFindOptions()); v != Refuted {
		t.Fatalf("verdict %v, want refuted", v)
	}
}
