package aig

import "testing"

// buildMux builds out = s ? a : b with the given input creation order.
func buildMux(order []int) *AIG {
	g := New()
	lits := make([]Lit, 3)
	names := []string{"s", "a", "b"}
	for _, i := range order {
		lits[i] = g.AddInput(names[i])
	}
	s, a, b := lits[0], lits[1], lits[2]
	out := g.And(g.And(s, a).Not(), g.And(s.Not(), b).Not()).Not()
	g.AddOutput(out, "o")
	return g
}

func TestFingerprintRenumberingInvariant(t *testing.T) {
	// Same function, same PI positions, different node numbering: build the
	// two AND legs in opposite orders so internal variables differ.
	g1 := New()
	in1 := g1.AddInputs(3)
	l1 := g1.And(in1[0], in1[1])
	r1 := g1.And(in1[1].Not(), in1[2])
	g1.AddOutput(g1.And(l1.Not(), r1.Not()).Not(), "o")

	g2 := New()
	in2 := g2.AddInputs(3)
	r2 := g2.And(in2[1].Not(), in2[2]) // built first: different var index
	l2 := g2.And(in2[0], in2[1])
	g2.AddOutput(g2.And(r2.Not(), l2.Not()).Not(), "o")

	if f1, f2 := g1.Fingerprint(), g2.Fingerprint(); f1 != f2 {
		t.Fatalf("isomorphic graphs fingerprint differently: %s vs %s", f1, f2)
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	g := New()
	in := g.AddInputs(2)
	g.AddOutput(g.And(in[0], in[1]), "o")

	h := New()
	hin := h.AddInputs(2)
	h.AddOutput(h.And(hin[0], hin[1].Not()), "o")

	x := New()
	xin := x.AddInputs(2)
	x.AddOutput(x.Xor(xin[0], xin[1]), "o")

	swapped := New()
	sin := swapped.AddInputs(2)
	swapped.AddOutput(swapped.And(sin[1], sin[0].Not()), "o") // a∧¬b vs ¬a∧b

	fg, fh, fx, fs := g.Fingerprint(), h.Fingerprint(), x.Fingerprint(), swapped.Fingerprint()
	for _, pair := range [][2]Fingerprint{{fg, fh}, {fg, fx}, {fh, fx}, {fh, fs}} {
		if pair[0] == pair[1] {
			t.Fatalf("distinct functions share fingerprint %s", pair[0])
		}
	}
	if fg == (Fingerprint{}) || fg.String() == "" {
		t.Fatalf("bad fingerprint rendering")
	}
}

func TestFingerprintPIPositionMatters(t *testing.T) {
	// out = s?a:b with inputs declared in different orders: the function over
	// positional inputs differs, so fingerprints must differ.
	g1 := buildMux([]int{0, 1, 2})
	g2 := buildMux([]int{1, 0, 2})
	if g1.Fingerprint() == g2.Fingerprint() {
		t.Fatalf("PI positions should be part of the fingerprint")
	}
}

func TestFingerprintOutputPhaseAndOrder(t *testing.T) {
	g := New()
	in := g.AddInputs(2)
	a := g.And(in[0], in[1])
	g.AddOutput(a, "o")

	h := New()
	hin := h.AddInputs(2)
	h.AddOutput(h.And(hin[0], hin[1]).Not(), "o")
	if g.Fingerprint() == h.Fingerprint() {
		t.Fatalf("output phase should change the fingerprint")
	}
}
