package skew

import (
	"math"
	"testing"

	"obfuslock/internal/aig"
)

// andChain builds x0 & x1 & ... & x(k-1) as a left-deep chain over n >= k
// inputs and returns the graph and root.
func andChain(n, k int) (*aig.AIG, aig.Lit) {
	g := aig.New()
	in := g.AddInputs(n)
	acc := in[0]
	for i := 1; i < k; i++ {
		acc = g.And(acc, in[i])
	}
	g.AddOutput(acc, "f")
	return g, acc
}

func TestBits(t *testing.T) {
	if Bits(0.5) != 1 {
		t.Fatalf("Bits(0.5) = %v", Bits(0.5))
	}
	if Bits(0.25) != 2 || Bits(0.75) != 2 {
		t.Fatal("Bits not symmetric")
	}
	if !math.IsInf(Bits(0), 1) || !math.IsInf(Bits(1), 1) {
		t.Fatal("Bits at constants should be +Inf")
	}
}

func TestAlgebraicExactOnTrees(t *testing.T) {
	g := aig.New()
	in := g.AddInputs(4)
	and2 := g.And(in[0], in[1])
	xor2 := g.Xor(in[2], in[3])
	maj3 := g.Maj(in[0].Not(), in[2], in[3])
	g.AddOutput(and2, "")
	p := Algebraic(g)
	if p[and2.Var()] != 0.25 {
		t.Fatalf("P(and2) = %v", p[and2.Var()])
	}
	if p[xor2.Var()] != 0.5 {
		t.Fatalf("P(xor2) = %v", p[xor2.Var()])
	}
	if p[maj3.Var()] != 0.5 {
		t.Fatalf("P(maj3) = %v", p[maj3.Var()])
	}
	if AlgebraicLit(p, and2.Not()) != 0.75 {
		t.Fatal("AlgebraicLit complement wrong")
	}
}

func TestAlgebraicReconvergenceError(t *testing.T) {
	// f = (a&b)&(a&c): truth 1/8, algebraic (independence) says 1/16.
	g := aig.New()
	in := g.AddInputs(3)
	f := g.And(g.And(in[0], in[1]), g.And(in[0], in[2]))
	g.AddOutput(f, "f")
	p := Algebraic(g)
	if math.Abs(p[f.Var()]-1.0/16) > 1e-12 {
		t.Fatalf("algebraic should be 1/16 (wrong on purpose), got %v", p[f.Var()])
	}
	// Monte Carlo recovers the true value.
	mc := MonteCarlo(g, f, 512, 7)
	if math.Abs(mc-1.0/8) > 0.02 {
		t.Fatalf("MC = %v, want ~1/8", mc)
	}
}

func TestMonteCarloChain(t *testing.T) {
	g, root := andChain(8, 4)
	mc := MonteCarlo(g, root, 512, 3)
	if math.Abs(mc-1.0/16) > 0.01 {
		t.Fatalf("MC = %v, want ~1/16", mc)
	}
}

func TestStagesChain(t *testing.T) {
	g, root := andChain(24, 20)
	st := Stages(g, root)
	if len(st) < 3 {
		t.Fatalf("expected several stages, got %d", len(st))
	}
	if st[len(st)-1] != root {
		t.Fatal("last stage must be the root")
	}
	// Stage bits must be increasing.
	p := Algebraic(g)
	last := -1.0
	for _, s := range st {
		b := Bits(AlgebraicLit(p, s))
		if b < last-1e-9 {
			t.Fatalf("stage bits not monotone: %v then %v", last, b)
		}
		last = b
	}
}

func TestSplittingDeepChain(t *testing.T) {
	// True skewness: 20 bits. Monte Carlo with 64*64 samples cannot see
	// this; splitting must.
	g, root := andChain(24, 20)
	opt := DefaultSplittingOptions()
	opt.Seed = 5
	bits := Bits(Splitting(g, root, nil, opt))
	if math.Abs(bits-20) > 2.5 {
		t.Fatalf("splitting estimate %.2f bits, want ~20", bits)
	}
	// Plain MC sees a constant (all samples 0) — demonstrating why
	// splitting is needed.
	if mc := MonteCarlo(g, root, 64, 5); mc != 0 {
		t.Logf("MC unexpectedly saw a witness (p=%v); fine but rare", mc)
	}
}

func TestSplittingModerateChainAccuracy(t *testing.T) {
	// 10-bit chain: both MC (with many samples) and splitting should agree.
	g, root := andChain(16, 10)
	opt := DefaultSplittingOptions()
	opt.Seed = 11
	p := Splitting(g, root, nil, opt)
	want := math.Pow(2, -10)
	if p <= 0 {
		t.Fatal("splitting returned 0 for a satisfiable chain")
	}
	ratio := p / want
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("splitting p = %v, want within 4x of 2^-10", p)
	}
}

func TestSplittingMixedOperators(t *testing.T) {
	// Chain with MAJ and AND-NOT steps: skew compounds irregularly.
	g := aig.New()
	in := g.AddInputs(20)
	acc := g.And(in[0], in[1])
	acc = g.And(acc, in[2].Not())
	acc = g.Maj(acc, g.And(in[3], in[4]), g.And(in[5], in[6]))
	for i := 7; i < 15; i++ {
		acc = g.And(acc, in[i])
	}
	g.AddOutput(acc, "f")
	opt := DefaultSplittingOptions()
	opt.Seed = 13
	opt.SamplesPerStage = 300
	got := Splitting(g, acc, nil, opt)
	// Reference via exhaustive evaluation over the 15 relevant inputs.
	sup := g.Support(acc)
	ones, total := 0, 0
	pat := make([]bool, 20)
	for m := 0; m < 1<<uint(len(sup)); m++ {
		for i, pi := range sup {
			pat[pi] = m>>uint(i)&1 == 1
		}
		if g.Eval(pat)[0] {
			ones++
		}
		total++
	}
	want := float64(ones) / float64(total)
	if want == 0 {
		t.Fatal("reference probability zero — bad test circuit")
	}
	ratio := got / want
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("splitting %v vs exhaustive %v (ratio %.2f)", got, want, ratio)
	}
}

func TestNodeSkewness(t *testing.T) {
	g, root := andChain(12, 6)
	ns := NodeSkewness(g, 256, 3)
	rb := ns[root.Var()]
	if math.Abs(rb-6) > 1 {
		t.Fatalf("root skewness %v bits, want ~6", rb)
	}
	// Inputs are balanced: ~1 bit.
	if math.Abs(ns[g.InputVar(0)]-1) > 0.2 {
		t.Fatalf("input skewness %v, want ~1", ns[g.InputVar(0)])
	}
}

func TestTopSkewedNodes(t *testing.T) {
	g, root := andChain(16, 8)
	// Add some balanced noise nodes.
	g.AddOutput(g.Xor(g.Input(8), g.Input(9)), "noise")
	top := TopSkewedNodes(g, 3, 2)
	if len(top) == 0 {
		t.Fatal("no candidates")
	}
	if top[0].Var() != root.Var() {
		t.Fatalf("most skewed node should be the chain root")
	}
	// minSupport filter: demanding more support than exists yields nothing.
	if res := TopSkewedNodes(g, 5, 100); len(res) != 0 {
		t.Fatalf("expected empty result under impossible support filter, got %d", len(res))
	}
}
