package sample

import (
	"math"
	"reflect"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/simp"
)

// skewCircuit: cond = AND of first k inputs (witness set = 2^(n-k)).
func skewCircuit(n, k int) (*aig.AIG, aig.Lit) {
	g := aig.New()
	in := g.AddInputs(n)
	cond := g.AndN(in[:k]...)
	g.AddOutput(cond, "cond")
	return g, cond
}

func validateWitnesses(t *testing.T, g *aig.AIG, cond aig.Lit, wit [][]bool) {
	t.Helper()
	probe := g.Copy()
	probe.AddOutput(cond, "probe")
	idx := probe.NumOutputs() - 1
	for _, w := range wit {
		if !probe.Eval(w)[idx] {
			t.Fatalf("non-witness sampled: %v", w)
		}
	}
}

func TestCubeSamplerValidity(t *testing.T) {
	g, cond := skewCircuit(12, 5)
	s := NewPool(g, simp.Options{}).Sampler(cond, 3)
	wit := s.Sample(40)
	if len(wit) < 30 {
		t.Fatalf("only %d witnesses", len(wit))
	}
	validateWitnesses(t, g, cond, wit)
	// All witnesses must set the first 5 inputs.
	for _, w := range wit {
		for i := 0; i < 5; i++ {
			if !w[i] {
				t.Fatal("witness violates the AND condition")
			}
		}
	}
}

func TestCubeSamplerSpread(t *testing.T) {
	// Free inputs should not be constant across witnesses.
	g, cond := skewCircuit(12, 4)
	s := NewPool(g, simp.Options{}).Sampler(cond, 11)
	wit := s.Sample(60)
	if len(wit) < 30 {
		t.Fatalf("only %d witnesses", len(wit))
	}
	for i := 4; i < 12; i++ {
		ones := 0
		for _, w := range wit {
			if w[i] {
				ones++
			}
		}
		frac := float64(ones) / float64(len(wit))
		if frac < 0.1 || frac > 0.9 {
			t.Errorf("input %d heavily biased: %.2f", i, frac)
		}
	}
}

func TestCubeSamplerUnsatCond(t *testing.T) {
	g := aig.New()
	a := g.AddInput("a")
	cond := g.And(a, a.Not()) // constant false
	g.AddOutput(cond, "c")
	s := NewPool(g, simp.Options{}).Sampler(cond, 1)
	if wit := s.Sample(5); len(wit) != 0 {
		t.Fatalf("sampled %d witnesses of an unsatisfiable condition", len(wit))
	}
}

func TestConditionalProbability(t *testing.T) {
	// cond = x0&x1, target = x0&x1&x2: P(target|cond) = 1/2.
	g := aig.New()
	in := g.AddInputs(8)
	cond := g.And(in[0], in[1])
	target := g.And(cond, in[2])
	g.AddOutput(target, "t")
	cs := NewPool(g, simp.Options{}).Sampler(cond, 17)
	p, n := ConditionalProbability(cs, target, 200)
	if n < 100 {
		t.Fatalf("too few witnesses: %d", n)
	}
	if math.Abs(p-0.5) > 0.15 {
		t.Fatalf("P(target|cond) = %.3f, want ~0.5", p)
	}
	// P(cond|cond) must be exactly 1.
	p1, _ := ConditionalProbability(cs, cond, 50)
	if p1 != 1 {
		t.Fatalf("P(cond|cond) = %v", p1)
	}
}

// A pooled sampler draws the same witnesses as one whose condition was
// prepared from scratch, however many samplers of that condition the
// pool handed out before: each gets its own copy of the prepared solver.
// The pool prepares each run of one condition once.
func TestPoolReuseMatchesFreshBuild(t *testing.T) {
	g, cond := skewCircuit(14, 6)
	other := g.Input(13).Not()
	for _, so := range []simp.Options{{}, simp.Off()} {
		want := NewPool(g, so).Sampler(cond, 5).Sample(20)
		p := NewPool(g, so)
		for seed := int64(1); seed <= 3; seed++ {
			p.Sampler(cond, seed).Sample(20)
		}
		if got := p.Sampler(cond, 5).Sample(20); !reflect.DeepEqual(got, want) {
			t.Fatalf("simp %+v: a reused pool drew other witnesses than a fresh one", so)
		}
		if p.Samplers != 4 || p.Builds != 1 {
			t.Fatalf("simp %+v: %d samplers from %d builds, want 4 from 1", so, p.Samplers, p.Builds)
		}
		// A new condition replaces the prepared one; returning to the
		// first prepares it again and still draws the same witnesses.
		p.Sampler(other, 9).Sample(5)
		if got := p.Sampler(cond, 5).Sample(20); !reflect.DeepEqual(got, want) {
			t.Fatalf("simp %+v: a rebuilt pool drew other witnesses than a fresh one", so)
		}
		if p.Builds != 3 {
			t.Fatalf("simp %+v: %d builds after switching conditions, want 3", so, p.Builds)
		}
	}
}
