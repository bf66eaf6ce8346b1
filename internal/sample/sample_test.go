package sample

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"obfuslock/internal/aig"
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
	s := NewPool(g).Sampler(cond, 3)
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
	s := NewPool(g).Sampler(cond, 11)
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
	s := NewPool(g).Sampler(cond, 1)
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
	cs := NewPool(g).Sampler(cond, 17)
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
// The pool prepares each run of one condition once, and serves a
// repeated (condition, seed, count) from its memo without a solver.
func TestPoolReuseMatchesFreshBuild(t *testing.T) {
	g, cond := skewCircuit(14, 6)
	other := g.Input(13).Not()
	want := NewPool(g).Sampler(cond, 5).Sample(20)
	p := NewPool(g)
	for seed := int64(1); seed <= 3; seed++ {
		p.Sampler(cond, seed).Sample(20)
	}
	if got := p.Sampler(cond, 5).Sample(20); !reflect.DeepEqual(got, want) {
		t.Fatal("a reused pool drew other witnesses than a fresh one")
	}
	if p.Samplers != 4 || p.Builds != 1 {
		t.Fatalf("%d samplers from %d builds, want 4 from 1", p.Samplers, p.Builds)
	}
	// A new condition replaces the prepared one; returning to the
	// first with a drawn seed is served from the memo and still
	// draws the same witnesses.
	p.Sampler(other, 9).Sample(5)
	if got := p.Sampler(cond, 5).Sample(20); !reflect.DeepEqual(got, want) {
		t.Fatal("a rebuilt pool drew other witnesses than a fresh one")
	}
	if p.Builds != 2 || p.SampleHits != 1 || p.Samplers != 5 {
		t.Fatalf("%d builds, %d hits, %d samplers after switching conditions, want 2, 1, 5",
			p.Builds, p.SampleHits, p.Samplers)
	}
	// A new seed misses the memo and prepares the condition again.
	fresh := NewPool(g).Sampler(cond, 6).Sample(20)
	if got := p.Sampler(cond, 6).Sample(20); !reflect.DeepEqual(got, fresh) {
		t.Fatal("a rebuilt pool drew other witnesses than a fresh one")
	}
	if p.Builds != 3 || p.SampleHits != 1 {
		t.Fatalf("%d builds, %d hits after a new seed, want 3, 1", p.Builds, p.SampleHits)
	}
}

// A sampler whose first draw came from the memo continues its random
// sequence exactly where a fresh sampler's would stand.
func TestMemoHitThenDrawContinuesSequence(t *testing.T) {
	g, cond := skewCircuit(14, 6)
	ref := NewPool(g).Sampler(cond, 7)
	ref.Sample(12)
	want := ref.Sample(9)
	p := NewPool(g)
	p.Sampler(cond, 7).Sample(12)
	s := p.Sampler(cond, 7)
	s.Sample(12)
	if p.SampleHits != 1 {
		t.Fatalf("%d memo hits, want 1", p.SampleHits)
	}
	if got := s.Sample(9); !reflect.DeepEqual(got, want) {
		t.Fatal("a sampler continued from a memo hit drew other witnesses than a fresh one")
	}
}

// A draw cut short by its context is not memoized: the next sampler of
// the same condition, seed and count draws afresh and gets the full set.
func TestCancelledDrawNotMemoized(t *testing.T) {
	g, cond := skewCircuit(14, 6)
	want := NewPool(g).Sampler(cond, 3).Sample(20)
	p := NewPool(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := p.Sampler(cond, 3)
	s.Ctx = ctx
	if got := s.Sample(20); len(got) >= len(want) {
		t.Fatalf("a cancelled draw returned %d witnesses, want fewer than %d", len(got), len(want))
	}
	if got := p.Sampler(cond, 3).Sample(20); !reflect.DeepEqual(got, want) {
		t.Fatal("the draw after a cancelled one differs from a fresh pool's")
	}
	if p.SampleHits != 0 || p.Samplers != 2 {
		t.Fatalf("%d memo hits from %d samplers, want 0 from 2", p.SampleHits, p.Samplers)
	}
}

// scalarRejection is the reference rejection sampler: one pattern at a
// time, the same random sequence, trial cap and early stop as Accepted.
// It also returns how many trials it used.
func scalarRejection(g *aig.AIG, cond aig.Lit, want int, seed int64) ([][]bool, int) {
	rng := rand.New(rand.NewSource(seed))
	var acc [][]bool
	trial := 0
	for ; trial < want*8 && len(acc) < want; trial++ {
		pat := make([]bool, g.NumInputs())
		for i := range pat {
			pat[i] = rng.Intn(2) == 1
		}
		if g.EvalLits(pat, cond)[0] {
			acc = append(acc, pat)
		}
	}
	return acc, trial
}

// randomGraph builds n inputs and k random AND/XOR/MAJ gates over them.
func randomGraph(rng *rand.Rand, n, k int) (*aig.AIG, []aig.Lit) {
	g := aig.New()
	lits := g.AddInputs(n)
	pick := func() aig.Lit {
		l := lits[rng.Intn(len(lits))]
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		return l
	}
	for i := 0; i < k; i++ {
		var l aig.Lit
		switch rng.Intn(4) {
		case 0, 1:
			l = g.And(pick(), pick())
		case 2:
			l = g.Xor(pick(), pick())
		default:
			l = g.Maj(pick(), pick(), pick())
		}
		if !l.IsConst() {
			lits = append(lits, l)
		}
	}
	return g, lits
}

// Accepted keeps exactly the patterns of the scalar rejection loop, and
// Fraction counts target hits on them as pattern-by-pattern evaluation
// does, over random graphs, conditions, seeds and counts. The cases cover
// both ends of the loop: stopping early at want patterns and running
// into the want*8 trial cap.
func TestAcceptedMatchesScalarRejection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	early, capped := 0, 0
	for iter := 0; iter < 60; iter++ {
		g, lits := randomGraph(rng, 3+rng.Intn(20), 5+rng.Intn(60))
		cond := lits[rng.Intn(len(lits))]
		if iter%4 == 0 {
			// A rare condition runs into the trial cap.
			cond = g.AndN(g.Inputs()[:min(g.NumInputs(), 8)]...)
		}
		target := lits[rng.Intn(len(lits))]
		want, seed := 1+rng.Intn(150), rng.Int63()
		ref, trials := scalarRejection(g, cond, want, seed)
		if len(ref) == want {
			early++
		}
		if trials == want*8 && len(ref) < want {
			capped++
		}
		p := NewPool(g)
		got := p.Accepted(cond, want, seed)
		if len(got) != len(ref) || len(ref) > 0 && !reflect.DeepEqual(got, ref) {
			t.Fatalf("iter %d: Accepted kept %d patterns, the scalar loop %d (or other ones)", iter, len(got), len(ref))
		}
		if len(ref) > 0 {
			hits := 0
			for _, pat := range ref {
				if g.EvalLits(pat, target)[0] {
					hits++
				}
			}
			if f, w := p.Fraction(target, got), float64(hits)/float64(len(ref)); f != w {
				t.Fatalf("iter %d: Fraction %v, scalar count %v", iter, f, w)
			}
		}
		if again := p.Accepted(cond, want, seed); p.RejectionHits != 1 || len(again) != len(got) {
			t.Fatalf("iter %d: repeated Accepted not served from the memo (%d hits)", iter, p.RejectionHits)
		}
	}
	if early == 0 || capped == 0 {
		t.Fatalf("cases stopped early %d times and hit the trial cap %d times; want both", early, capped)
	}
}
