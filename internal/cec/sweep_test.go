package cec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/obs"
	"obfuslock/internal/rewrite"
)

// randAIG builds a seeded random graph with some deliberate functional
// duplicates, so sweeping has real merging work.
func randAIG(seed int64, nin, nnodes int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New()
	var lits []aig.Lit
	for i := 0; i < nin; i++ {
		lits = append(lits, g.AddInput(fmt.Sprintf("x%d", i)))
	}
	pick := func() aig.Lit {
		return lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
	}
	for i := 0; i < nnodes; i++ {
		a, b := pick(), pick()
		var l aig.Lit
		switch rng.Intn(4) {
		case 0:
			l = g.And(a, b)
		case 1:
			l = g.Xor(a, b)
		case 2:
			l = g.Maj(a, b, pick())
		case 3:
			l = g.XorAnd(a, b)
			lits = append(lits, g.Xor(a, b))
		}
		lits = append(lits, l)
	}
	for i := 0; i < 2; i++ {
		g.AddOutput(pick(), fmt.Sprintf("y%d", i))
	}
	return g
}

// mutate returns a copy of g with a random single change that may or may
// not alter the function (an internal fanin flip can land in a don't-care
// cone); the cross-check below only asserts that the swept and plain
// checkers agree, whatever the ground truth.
func mutate(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	ng := g.Copy()
	o := rng.Intn(ng.NumOutputs())
	if rng.Intn(2) == 0 {
		ng.SetOutput(o, ng.Output(o).Not())
		return ng
	}
	// Re-point an output at another node of the graph.
	v := uint32(1 + rng.Intn(int(ng.MaxVar())))
	ng.SetOutput(o, aig.MkLit(v, rng.Intn(2) == 1))
	return ng
}

// TestSweptCheckCrossCheck runs ~100 seeded random pairs — equivalent by
// rewriting, and mutated likely-inequivalent — through both the plain
// miter path and the swept path and requires identical verdicts.
func TestSweptCheckCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		a := randAIG(int64(i), 5, 30)
		var b *aig.AIG
		equivalentByConstruction := i%2 == 0
		if equivalentByConstruction {
			b = rewrite.Balance(rewrite.FunctionalRewrite(a, int64(i)+1000))
		} else {
			b = mutate(a, rng)
		}

		plainOpt := DefaultOptions()
		plain, err := Check(context.Background(), a, b, plainOpt)
		if err != nil {
			t.Fatalf("pair %d: plain check: %v", i, err)
		}
		sweptOpt := SweepOptions()
		swept, err := Check(context.Background(), a, b, sweptOpt)
		if err != nil {
			t.Fatalf("pair %d: swept check: %v", i, err)
		}
		if !plain.Decided || !swept.Decided {
			t.Fatalf("pair %d: undecided without a budget (plain=%v swept=%v)",
				i, plain.Decided, swept.Decided)
		}
		if plain.Equivalent != swept.Equivalent {
			t.Fatalf("pair %d: plain says %v, swept says %v",
				i, plain.Equivalent, swept.Equivalent)
		}
		if equivalentByConstruction && !swept.Equivalent {
			t.Fatalf("pair %d: rewritten pair reported inequivalent", i)
		}
		if !swept.Equivalent {
			// The counterexample must actually distinguish the circuits.
			va, vb := a.Eval(swept.Counterexample), b.Eval(swept.Counterexample)
			differs := false
			for o := range va {
				if va[o] != vb[o] {
					differs = true
				}
			}
			if !differs {
				t.Fatalf("pair %d: swept counterexample does not distinguish", i)
			}
		}
	}
}

// TestCheckTraced pins the tracing satellite: Check emits a cec.check span
// so CEC time shows up in -trace like every other phase.
func TestCheckTraced(t *testing.T) {
	col := obs.NewCollector()
	tr := obs.New(col)
	a := randAIG(1, 5, 30)
	b := rewrite.FunctionalRewrite(a, 2)
	for _, sweep := range []bool{false, true} {
		opt := DefaultOptions()
		if sweep {
			opt = SweepOptions()
		}
		opt.Trace = tr
		if _, err := Check(context.Background(), a, b, opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := col.SpanNamed("cec.check"); !ok {
		t.Fatal("no cec.check span recorded")
	}
	if _, ok := col.SpanNamed("fraig.sweep"); !ok {
		t.Fatal("swept check did not record a fraig.sweep span")
	}

	// FindNode must trace too.
	specG := aig.New()
	sa := specG.AddInput("a")
	sb := specG.AddInput("b")
	spec := specG.And(sa, sb)
	specG.AddOutput(spec, "f")
	g := aig.New()
	ga := g.AddInput("a")
	gb := g.AddInput("b")
	g.AddOutput(g.Or(ga, gb), "z")
	fopt := DefaultFindOptions()
	fopt.Trace = tr
	FindNode(context.Background(), g, specG, spec, fopt)
	if _, ok := col.SpanNamed("cec.find_node"); !ok {
		t.Fatal("no cec.find_node span recorded")
	}
}
