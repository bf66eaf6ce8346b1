package cnf

import (
	"math/rand"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/sat"
)

// enumEncoder checks that the CNF encoding of a graph agrees with Eval on
// every input pattern.
func checkEncoding(t *testing.T, g *aig.AIG) {
	t.Helper()
	n := g.NumInputs()
	if n > 10 {
		t.Fatal("checkEncoding: too many inputs for enumeration")
	}
	for m := 0; m < 1<<n; m++ {
		s := sat.New()
		e := NewEncoder(g, s)
		outs := e.Encode()
		assumps := make([]sat.Lit, n)
		pat := make([]bool, n)
		for i := 0; i < n; i++ {
			pat[i] = m>>i&1 == 1
			assumps[i] = e.InputLit(i)
			if !pat[i] {
				assumps[i] = assumps[i].Not()
			}
		}
		if s.Solve(assumps...) != sat.Sat {
			t.Fatalf("encoding unsatisfiable under input %v", pat)
		}
		want := g.Eval(pat)
		for o := range outs {
			if s.ModelValue(outs[o]) != want[o] {
				t.Fatalf("pattern %v output %d: cnf %v eval %v",
					pat, o, s.ModelValue(outs[o]), want[o])
			}
		}
	}
}

func TestEncodeGateTypes(t *testing.T) {
	g := aig.New()
	in := g.AddInputs(4)
	g.AddOutput(g.And(in[0], in[1].Not()), "and")
	g.AddOutput(g.Xor(in[1], in[2]), "xor")
	g.AddOutput(g.Maj(in[0], in[2].Not(), in[3]), "maj")
	g.AddOutput(g.Or(in[0], in[3]).Not(), "nor")
	g.AddOutput(aig.ConstTrue, "one")
	g.AddOutput(aig.ConstFalse, "zero")
	checkEncoding(t, g)
}

func TestEncodeRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g := aig.New()
		lits := g.AddInputs(5)
		for i := 0; i < 20; i++ {
			pick := func() aig.Lit {
				l := lits[rng.Intn(len(lits))]
				if rng.Intn(2) == 0 {
					l = l.Not()
				}
				return l
			}
			switch rng.Intn(3) {
			case 0:
				lits = append(lits, g.And(pick(), pick()))
			case 1:
				lits = append(lits, g.Xor(pick(), pick()))
			default:
				lits = append(lits, g.Maj(pick(), pick(), pick()))
			}
		}
		g.AddOutput(lits[len(lits)-1], "f")
		g.AddOutput(lits[len(lits)-2], "g")
		checkEncoding(t, g)
	}
}

func TestMiterEquivalentUnsat(t *testing.T) {
	// XOR built natively vs from ANDs: functionally equal, structurally not.
	g1 := aig.New()
	in1 := g1.AddInputs(3)
	g1.AddOutput(g1.Xor(g1.Xor(in1[0], in1[1]), in1[2]), "f")

	g2 := aig.New()
	in2 := g2.AddInputs(3)
	g2.AddOutput(g2.XorAnd(g2.XorAnd(in2[0], in2[1]), in2[2]), "f")

	s := sat.New()
	_, diff := Miter(s, g1, g2)
	s.AddClause(diff)
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("equivalent circuits: miter %v, want UNSAT", st)
	}
}

func TestMiterInequivalentSat(t *testing.T) {
	g1 := aig.New()
	in1 := g1.AddInputs(2)
	g1.AddOutput(g1.And(in1[0], in1[1]), "f")

	g2 := aig.New()
	in2 := g2.AddInputs(2)
	g2.AddOutput(g2.Or(in2[0], in2[1]), "f")

	s := sat.New()
	inputs, diff := Miter(s, g1, g2)
	s.AddClause(diff)
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("different circuits: miter %v, want SAT", st)
	}
	// The distinguishing input must actually distinguish AND from OR.
	a := s.ModelValue(inputs[0])
	b := s.ModelValue(inputs[1])
	if (a && b) == (a || b) {
		t.Fatalf("model %v %v does not distinguish AND from OR", a, b)
	}
}

func TestXorConstraintParity(t *testing.T) {
	for rhs := 0; rhs < 2; rhs++ {
		s := sat.New()
		lits := make([]sat.Lit, 4)
		for i := range lits {
			lits[i] = sat.MkLit(s.NewVar(), false)
		}
		AddXorConstraint(s, lits, rhs == 1)
		// Enumerate all models by blocking; all must have the right parity,
		// and there must be exactly 8.
		count := 0
		for s.Solve() == sat.Sat {
			parity := false
			block := make([]sat.Lit, len(lits))
			for i, l := range lits {
				v := s.ModelValue(l)
				if v {
					parity = !parity
					block[i] = l.Not()
				} else {
					block[i] = l
				}
			}
			if parity != (rhs == 1) {
				t.Fatalf("model with wrong parity (rhs=%d)", rhs)
			}
			count++
			if count > 16 {
				t.Fatal("too many models")
			}
			s.AddClause(block...)
		}
		if count != 8 {
			t.Fatalf("rhs=%d: got %d models, want 8", rhs, count)
		}
	}
}

func TestEmptyXorConstraint(t *testing.T) {
	s := sat.New()
	AddXorConstraint(s, nil, false)
	if s.Solve() != sat.Sat {
		t.Fatal("0=0 should be SAT")
	}
	s2 := sat.New()
	AddXorConstraint(s2, nil, true)
	if s2.Solve() != sat.Unsat {
		t.Fatal("0=1 should be UNSAT")
	}
}

func TestHelperLits(t *testing.T) {
	s := sat.New()
	a := sat.MkLit(s.NewVar(), false)
	b := sat.MkLit(s.NewVar(), false)
	c := sat.MkLit(s.NewVar(), false)
	orL := OrLit(s, a, b, c)
	for m := 0; m < 8; m++ {
		va, vb, vc := m&1 == 1, m>>1&1 == 1, m>>2&1 == 1
		assume := []sat.Lit{
			a.Not(), b.Not(), c.Not(),
		}
		if va {
			assume[0] = a
		}
		if vb {
			assume[1] = b
		}
		if vc {
			assume[2] = c
		}
		if s.Solve(assume...) != sat.Sat {
			t.Fatal("helper constraints unsatisfiable")
		}
		if s.ModelValue(orL) != (va || vb || vc) {
			t.Fatalf("OrLit wrong at %d", m)
		}
	}
}

// An encoder that keeps encoding after variable elimination re-encodes
// exactly the nodes whose variable was eliminated, and the literals it
// then returns agree with a fresh encoding of the same graph (and with
// Eval) under every key assignment tried. Only the inputs and the
// encoded roots are frozen, as in the SAT attack's key-space graph.
func TestEncodeAfterElimination(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := aig.New()
	keys := g.AddInputs(6)
	lits := append([]aig.Lit(nil), keys...)
	pick := func() aig.Lit { return lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0) }
	grow := func(n int) {
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				lits = append(lits, g.And(pick(), pick()))
			} else {
				lits = append(lits, g.Xor(pick(), pick()))
			}
		}
	}
	grow(40)
	s := sat.New()
	e := NewEncoder(g, s)
	kl := make([]sat.Lit, len(keys))
	for i := range kl {
		kl[i] = e.InputLit(i)
	}
	first := e.Encode(lits[len(lits)-3:]...)
	if !s.Simplify(true) {
		t.Fatal("simplification refuted a satisfiable encoding")
	}
	e.DropEliminated()
	// New roots over the old nodes, so that Encode reaches both
	// eliminated and surviving variables.
	grow(30)
	roots := append(lits[len(lits)-30:], lits[len(lits)-33:len(lits)-30]...)
	got := e.Encode(roots...)
	if e.Reencoded() == 0 {
		t.Fatal("no node was re-encoded; the test does not exercise elimination")
	}
	for i := range first {
		if got[30+i] != first[i] {
			t.Fatalf("root %d: re-encoded as %v, was %v; a frozen root must keep its variable", i, got[30+i], first[i])
		}
	}
	fs := sat.New()
	fe := NewEncoder(g, fs)
	fk := make([]sat.Lit, len(keys))
	for i := range fk {
		fk[i] = fe.InputLit(i)
	}
	want := fe.Encode(roots...)
	for trial := 0; trial < 32; trial++ {
		pat := make([]bool, len(keys))
		a, fa := make([]sat.Lit, len(keys)), make([]sat.Lit, len(keys))
		for i := range pat {
			pat[i] = rng.Intn(2) == 1
			a[i], fa[i] = kl[i], fk[i]
			if !pat[i] {
				a[i], fa[i] = a[i].Not(), fa[i].Not()
			}
		}
		if s.Solve(a...) != sat.Sat || fs.Solve(fa...) != sat.Sat {
			t.Fatalf("key %v: encoding unsatisfiable", pat)
		}
		eval := g.EvalLits(pat, roots...)
		for i := range roots {
			if s.ModelValue(got[i]) != fs.ModelValue(want[i]) || s.ModelValue(got[i]) != eval[i] {
				t.Fatalf("key %v root %d: re-encoded %v, fresh %v, eval %v",
					pat, i, s.ModelValue(got[i]), fs.ModelValue(want[i]), eval[i])
			}
		}
	}
}
