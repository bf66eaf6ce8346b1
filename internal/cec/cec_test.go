package cec

import (
	"context"
	"math/rand"
	"testing"

	"obfuslock/internal/aig"
)

// adder builds a ripple-carry adder: 2n inputs, n+1 outputs.
func adder(n int) *aig.AIG {
	g := aig.New()
	a := make([]aig.Lit, n)
	b := make([]aig.Lit, n)
	for i := range a {
		a[i] = g.AddInput("")
	}
	for i := range b {
		b[i] = g.AddInput("")
	}
	carry := aig.ConstFalse
	for i := 0; i < n; i++ {
		s := g.Xor(g.Xor(a[i], b[i]), carry)
		carry = g.Maj(a[i], b[i], carry)
		g.AddOutput(s, "")
	}
	g.AddOutput(carry, "cout")
	return g
}

// adderAnd is the same adder lowered to pure AND logic with a different
// carry formulation: structurally distinct, functionally identical.
func adderAnd(n int) *aig.AIG {
	g := aig.New()
	a := make([]aig.Lit, n)
	b := make([]aig.Lit, n)
	for i := range a {
		a[i] = g.AddInput("")
	}
	for i := range b {
		b[i] = g.AddInput("")
	}
	carry := aig.ConstFalse
	for i := 0; i < n; i++ {
		axb := g.XorAnd(a[i], b[i])
		s := g.XorAnd(axb, carry)
		carry = g.Or(g.And(a[i], b[i]), g.And(axb, carry))
		g.AddOutput(s, "")
	}
	g.AddOutput(carry, "cout")
	return g
}

func TestEquivalentAdders(t *testing.T) {
	for _, n := range []int{1, 4, 8, 16} {
		r, err := Check(context.Background(), adder(n), adderAnd(n), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !r.Decided || !r.Equivalent {
			t.Fatalf("n=%d: adders not proven equivalent: %+v", n, r)
		}
	}
}

func TestInequivalentCounterexample(t *testing.T) {
	g1 := adder(4)
	g2 := adder(4)
	// Corrupt one output of g2.
	g2.SetOutput(2, g2.Output(2).Not())
	r, err := Check(context.Background(), g1, g2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Equivalent || !r.Decided {
		t.Fatalf("corrupted adder reported equivalent: %+v", r)
	}
	// The counterexample must exhibit the difference.
	o1 := g1.Eval(r.Counterexample)
	o2 := g2.Eval(r.Counterexample)
	same := true
	for i := range o1 {
		if o1[i] != o2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("counterexample does not distinguish the circuits")
	}
}

func TestInequivalentWithoutSimFilter(t *testing.T) {
	// Difference on exactly one input pattern: simulation will likely miss
	// it, forcing the SAT path.
	n := 16
	g1 := aig.New()
	in1 := g1.AddInputs(n)
	g1.AddOutput(aig.ConstFalse, "f")
	g2 := aig.New()
	in2 := g2.AddInputs(n)
	g2.AddOutput(g2.AndN(in2...), "f")
	_ = in1
	opt := DefaultOptions()
	opt.SimWords = 1
	r, err := Check(context.Background(), g1, g2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Equivalent || !r.Decided {
		t.Fatalf("point-function difference missed: %+v", r)
	}
	for _, bit := range r.Counterexample {
		if !bit {
			t.Fatal("only the all-ones pattern distinguishes; got something else")
		}
	}
}

func TestInterfaceMismatch(t *testing.T) {
	if _, err := Check(context.Background(), adder(2), adder(3), DefaultOptions()); err == nil {
		t.Fatal("expected interface mismatch error")
	}
}

func TestBudgetUndecided(t *testing.T) {
	// A hard miter: two structurally very different 24-bit adders with a
	// budget of 0 conflicts can at most be decided by pure propagation.
	opt := DefaultOptions()
	opt.SimWords = 0
	opt.Budget.Conflicts = -1 // propagation-only: exhaust immediately
	r, err := Check(context.Background(), adder(24), adderAnd(24), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decided && !r.Equivalent {
		t.Fatal("budget-limited check returned a wrong refutation")
	}
}

func TestFindEquivalentNode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// specG computes f = (a&b)^c ; g contains an equivalent node buried in
	// other logic, built differently.
	specG := aig.New()
	sa := specG.AddInput("a")
	sb := specG.AddInput("b")
	sc := specG.AddInput("c")
	spec := specG.Xor(specG.And(sa, sb), sc)
	specG.AddOutput(spec, "f")

	g := aig.New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	// Same function via mux decomposition: if c then !(a&b) else (a&b).
	ab := g.And(a, b)
	target := g.Mux(c, ab.Not(), ab)
	noise := g.Maj(a, b.Not(), c)
	g.AddOutput(g.And(target, noise.Not()).Not(), "z")
	g.AddOutput(noise, "y")

	got, v := FindNode(context.Background(), g, specG, spec, FindOptions{SimWords: 4, Seed: 7})
	if v != Found {
		t.Fatal("equivalent node not found")
	}
	// Verify the find by exhaustive evaluation.
	for m := 0; m < 8; m++ {
		pat := []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
		gg := g.Copy()
		gg.AddOutput(got, "probe")
		probe := gg.Eval(pat)[2]
		want := (pat[0] && pat[1]) != pat[2]
		if probe != want {
			t.Fatalf("found literal wrong at %v", pat)
		}
	}
	// Negative case: no node computes parity of all three inputs here.
	spec2G := aig.New()
	p := spec2G.Xor(spec2G.Xor(spec2G.AddInput("a"), spec2G.AddInput("b")), spec2G.AddInput("c"))
	spec2G.AddOutput(p, "f")
	if _, v := FindNode(context.Background(), g, spec2G, p, FindOptions{SimWords: 4, Seed: rng.Int63()}); v == Found {
		t.Fatal("found a node that should not exist")
	}
}
