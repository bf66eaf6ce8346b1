package rewrite

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/cec"
)

func randomGraph(rng *rand.Rand, nin, nnodes int) *aig.AIG {
	g := aig.New()
	lits := g.AddInputs(nin)
	for i := 0; i < nnodes; i++ {
		pick := func() aig.Lit {
			l := lits[rng.Intn(len(lits))]
			if rng.Intn(2) == 0 {
				l = l.Not()
			}
			return l
		}
		switch rng.Intn(5) {
		case 0, 1, 2:
			lits = append(lits, g.And(pick(), pick()))
		case 3:
			lits = append(lits, g.Xor(pick(), pick()))
		default:
			lits = append(lits, g.Maj(pick(), pick(), pick()))
		}
	}
	for i := 0; i < 2; i++ {
		g.AddOutput(lits[len(lits)-1-i], "")
	}
	return g
}

func mustEquivalent(t *testing.T, a, b *aig.AIG, label string) {
	t.Helper()
	r, err := cec.Check(context.Background(), a, b, cec.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !r.Equivalent {
		t.Fatalf("%s: not equivalent (cex %v)", label, r.Counterexample)
	}
}

func TestCutEnumerationSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 6, 40)
	cuts := EnumerateCuts(g, 4, 8)
	for v := uint32(1); v <= g.MaxVar(); v++ {
		if g.Op(v) == aig.OpInput {
			continue
		}
		for _, cut := range cuts[v] {
			if len(cut.Leaves) > 4 {
				t.Fatalf("cut wider than k: %v", cut.Leaves)
			}
			tt, ok := CutTruth(g, v, cut.Leaves)
			if !ok {
				// Trivial or unreachable cut; the trivial cut {v} must work.
				if len(cut.Leaves) == 1 && cut.Leaves[0] == v {
					continue
				}
				t.Fatalf("CutTruth failed for cut %v of node %d", cut.Leaves, v)
			}
			// Validate the truth table against direct evaluation: build a
			// probe comparing v with the cover of tt over leaves.
			probe := g.Copy()
			leafLits := make([]aig.Lit, len(cut.Leaves))
			for i, lf := range cut.Leaves {
				leafLits[i] = aig.MkLit(lf, false)
			}
			rebuilt := BuildFromTruth(probe, tt, leafLits)
			mustEquivalent(t, cec.ConeGraph(probe, aig.MkLit(v, false)), cec.ConeGraph(probe, rebuilt),
				fmt.Sprintf("cut truth of node %d over %v", v, cut.Leaves))
		}
	}
}

func TestBuildFromTruthBasics(t *testing.T) {
	g := aig.New()
	in := g.AddInputs(3)
	// XOR3 truth over inputs.
	tt := VarTruth(0) ^ VarTruth(1) ^ VarTruth(2)
	root := BuildFromTruth(g, tt, in)
	g.AddOutput(root, "f")
	for m := 0; m < 8; m++ {
		pat := []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
		want := pat[0] != pat[1] != pat[2]
		if got := g.Eval(pat)[0]; got != want {
			t.Fatalf("xor3 wrong at %d", m)
		}
	}
	if BuildFromTruth(g, 0, in) != aig.ConstFalse {
		t.Fatal("constant 0")
	}
	if BuildFromTruth(g, ^uint64(0), in) != aig.ConstTrue {
		t.Fatal("constant 1")
	}
}

func TestFunctionalRewriteEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 5+rng.Intn(4), 40+rng.Intn(60))
		for seed := int64(1); seed <= 3; seed++ {
			rw := FunctionalRewrite(g, seed)
			mustEquivalent(t, g, rw, "rewrite")
			if rw.NumNodes() > g.NumNodes()+2 {
				t.Fatalf("seed %d: rewrite grew: %d -> %d", seed, g.NumNodes(), rw.NumNodes())
			}
		}
	}
}

func TestFunctionalRewriteRandomizedEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 7, 60)
	rw1 := FunctionalRewrite(g, 1)
	rw2 := FunctionalRewrite(g, 2)
	mustEquivalent(t, g, rw1, "randomized rewrite 1")
	mustEquivalent(t, g, rw2, "randomized rewrite 2")
}

func TestFunctionalRewriteReducesRedundancy(t *testing.T) {
	// A deliberately wasteful XOR built from muxes should shrink.
	g := aig.New()
	in := g.AddInputs(2)
	x := g.Mux(in[0], in[1].Not(), in[1])
	x2 := g.Mux(x, in[0], in[0].Not()) // == XNOR(x, in0)... more junk
	g.AddOutput(g.And(x, x2.Not()).Not(), "f")
	for seed := int64(1); seed <= 4; seed++ {
		rw := FunctionalRewrite(g, seed)
		mustEquivalent(t, g, rw, "cleanup rewrite")
		if rw.NumNodes() > g.NumNodes() {
			t.Fatalf("seed %d: rewrite grew: %d -> %d", seed, g.NumNodes(), rw.NumNodes())
		}
	}
}

func TestBubblesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randomGraph(rng, 8, 40)
	bubbled, b := InsertBubbles(g, 33)
	// Applying the same bubbles again must cancel.
	double := ApplyBubbles(bubbled, b)
	mustEquivalent(t, g, double, "double bubble")
	// With a nonzero vector, the circuits differ somewhere (almost surely
	// for random logic); verify by checking evaluation under b.
	anySet := false
	for _, bit := range b {
		anySet = anySet || bit
	}
	if anySet {
		pat := make([]bool, g.NumInputs())
		flipped := make([]bool, len(pat))
		for i := range pat {
			pat[i] = rng.Intn(2) == 1
			flipped[i] = pat[i] != b[i]
		}
		og := g.Eval(flipped)
		bg := bubbled.Eval(pat)
		for i := range og {
			if og[i] != bg[i] {
				t.Fatal("bubbled circuit must compute g(x^b)")
			}
		}
	}
}

func TestHideInverters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 6, 40)
		bubbled, _ := InsertBubbles(g, int64(trial))
		hidden := HideInverters(bubbled)
		mustEquivalent(t, bubbled, hidden, "hide inverters")
		if n := CountPIInverterEdges(hidden); n != 0 {
			t.Fatalf("trial %d: %d PI inverter edges remain", trial, n)
		}
	}
}

func TestHideInvertersDoubleComplement(t *testing.T) {
	g := aig.New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	g.AddOutput(g.And(a.Not(), b.Not()), "nor")
	g.AddOutput(g.Maj(a.Not(), b.Not(), g.And(a, b)), "m")
	hidden := HideInverters(g)
	mustEquivalent(t, g, hidden, "double complement")
	if n := CountPIInverterEdges(hidden); n != 0 {
		t.Fatalf("%d PI inverter edges remain", n)
	}
}
