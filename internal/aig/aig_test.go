package aig

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if ConstFalse.Var() != 0 || ConstTrue.Var() != 0 {
		t.Fatal("constants must live on variable 0")
	}
	if ConstFalse.Not() != ConstTrue || ConstTrue.Not() != ConstFalse {
		t.Fatal("constant complement broken")
	}
}

func TestLitOps(t *testing.T) {
	l := MkLit(7, true)
	if l.Var() != 7 || !l.IsCompl() {
		t.Fatalf("MkLit: got var=%d compl=%v", l.Var(), l.IsCompl())
	}
	if l.Regular() != MkLit(7, false) {
		t.Fatal("Regular broken")
	}
	if l.NotIf(false) != l || l.NotIf(true) != l.Not() {
		t.Fatal("NotIf broken")
	}
}

func TestAndSimplifications(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	cases := []struct {
		got, want Lit
		name      string
	}{
		{g.And(a, ConstFalse), ConstFalse, "a&0"},
		{g.And(ConstFalse, a), ConstFalse, "0&a"},
		{g.And(a, ConstTrue), a, "a&1"},
		{g.And(ConstTrue, a), a, "1&a"},
		{g.And(a, a), a, "a&a"},
		{g.And(a, a.Not()), ConstFalse, "a&!a"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v want %v", c.name, c.got, c.want)
		}
	}
	ab := g.And(a, b)
	if g.And(b, a) != ab {
		t.Error("And not commutative under strashing")
	}
	if g.NumNodes() != 1 {
		t.Errorf("expected 1 node, got %d", g.NumNodes())
	}
}

func TestXorCanonical(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	x := g.Xor(a, b)
	if g.Xor(b, a) != x {
		t.Error("Xor not commutative")
	}
	if g.Xor(a.Not(), b) != x.Not() {
		t.Error("Xor complement not pulled to output")
	}
	if g.Xor(a.Not(), b.Not()) != x {
		t.Error("double complement should cancel")
	}
	if g.Xor(a, a) != ConstFalse || g.Xor(a, a.Not()) != ConstTrue {
		t.Error("Xor self cases broken")
	}
	if g.Xor(a, ConstFalse) != a || g.Xor(a, ConstTrue) != a.Not() {
		t.Error("Xor constant cases broken")
	}
	if g.NumNodes() != 1 {
		t.Errorf("expected 1 XOR node, got %d", g.NumNodes())
	}
}

func TestMajCanonical(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	m := g.Maj(a, b, c)
	if g.Maj(c, a, b) != m || g.Maj(b, c, a) != m {
		t.Error("Maj not symmetric under strashing")
	}
	if g.Maj(a.Not(), b.Not(), c.Not()) != m.Not() {
		t.Error("Maj self-duality canonicalization broken")
	}
	if g.Maj(a, a, c) != a {
		t.Error("Maj(a,a,c) != a")
	}
	if g.Maj(a, a.Not(), c) != c {
		t.Error("Maj(a,!a,c) != c")
	}
	if g.Maj(ConstTrue, b, c) != g.Or(b, c) {
		t.Error("Maj(1,b,c) != b|c")
	}
	if g.Maj(ConstFalse, b, c) != g.And(b, c) {
		t.Error("Maj(0,b,c) != b&c")
	}
}

// evalLit is a reference evaluator used by the property tests.
func evalTruth(g *AIG, root Lit, n int) []bool {
	tt := make([]bool, 1<<n)
	pat := make([]bool, g.NumInputs())
	for m := 0; m < 1<<n; m++ {
		for i := 0; i < n; i++ {
			pat[i] = m>>i&1 == 1
		}
		g2 := g.Copy()
		g2.AddOutput(root, "t")
		out := g2.Eval(pat)
		tt[m] = out[len(out)-1]
	}
	return tt
}

func TestDerivedGatesTruth(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	type tc struct {
		name string
		lit  Lit
		f    func(a, b, c bool) bool
	}
	cases := []tc{
		{"or", g.Or(a, b), func(x, y, _ bool) bool { return x || y }},
		{"xorand", g.XorAnd(a, b), func(x, y, _ bool) bool { return x != y }},
		{"mux", g.Mux(a, b, c), func(x, y, z bool) bool {
			if x {
				return y
			}
			return z
		}},
		{"majand", g.MajAnd(a, b, c), func(x, y, z bool) bool {
			return (x && y) || (x && z) || (y && z)
		}},
		{"maj", g.Maj(a, b, c), func(x, y, z bool) bool {
			return (x && y) || (x && z) || (y && z)
		}},
		{"xor", g.Xor(a, b), func(x, y, _ bool) bool { return x != y }},
	}
	for _, cse := range cases {
		tt := evalTruth(g, cse.lit, 3)
		for m := 0; m < 8; m++ {
			want := cse.f(m&1 == 1, m>>1&1 == 1, m>>2&1 == 1)
			if tt[m] != want {
				t.Errorf("%s: minterm %d got %v want %v", cse.name, m, tt[m], want)
			}
		}
	}
}

func TestAndNOrN(t *testing.T) {
	g := New()
	lits := g.AddInputs(5)
	all := g.AndN(lits...)
	any := g.OrN(lits...)
	pat := make([]bool, 5)
	g.AddOutput(all, "all")
	g.AddOutput(any, "any")
	for m := 0; m < 32; m++ {
		cnt := 0
		for i := 0; i < 5; i++ {
			pat[i] = m>>i&1 == 1
			if pat[i] {
				cnt++
			}
		}
		out := g.Eval(pat)
		if out[0] != (cnt == 5) || out[1] != (cnt > 0) {
			t.Fatalf("AndN/OrN wrong at minterm %d", m)
		}
	}
	if g.AndN() != ConstTrue || g.OrN() != ConstFalse {
		t.Error("empty AndN/OrN identities wrong")
	}
}

// randomGraph builds a random extended AIG for property testing.
func randomGraph(rng *rand.Rand, nin, nnodes int) *AIG {
	g := New()
	lits := g.AddInputs(nin)
	for i := 0; i < nnodes; i++ {
		pick := func() Lit {
			l := lits[rng.Intn(len(lits))]
			if rng.Intn(2) == 0 {
				l = l.Not()
			}
			return l
		}
		var l Lit
		switch rng.Intn(4) {
		case 0, 1:
			l = g.And(pick(), pick())
		case 2:
			l = g.Xor(pick(), pick())
		default:
			l = g.Maj(pick(), pick(), pick())
		}
		lits = append(lits, l)
	}
	nout := 1 + rng.Intn(3)
	for i := 0; i < nout; i++ {
		g.AddOutput(lits[rng.Intn(len(lits))], "")
	}
	return g
}

func graphsEqual(t *testing.T, a, b *AIG, trials int, rng *rand.Rand) {
	t.Helper()
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		t.Fatalf("interface mismatch: %v vs %v", a.Stats(), b.Stats())
	}
	pat := make([]bool, a.NumInputs())
	for i := 0; i < trials; i++ {
		for j := range pat {
			pat[j] = rng.Intn(2) == 1
		}
		oa, ob := a.Eval(pat), b.Eval(pat)
		for k := range oa {
			if oa[k] != ob[k] {
				t.Fatalf("graphs differ at output %d on %v", k, pat)
			}
		}
	}
}

func TestLowerToAndEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 4+rng.Intn(5), 10+rng.Intn(40))
		low := g.LowerToAnd()
		if st := low.Stats(); st.Xors != 0 || st.Majs != 0 {
			t.Fatal("LowerToAnd left extended nodes")
		}
		graphsEqual(t, g, low, 64, rng)
	}
}

func TestCleanupEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 4+rng.Intn(5), 10+rng.Intn(40))
		c := g.Cleanup()
		if c.MaxVar() > g.MaxVar() {
			t.Fatal("Cleanup grew the graph")
		}
		graphsEqual(t, g, c, 64, rng)
	}
}

func TestImportRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 5, 25)
		ng := New()
		piMap := make([]Lit, g.NumInputs())
		for i := range piMap {
			piMap[i] = ng.AddInput("")
		}
		outs := ng.Import(g, piMap)
		for _, o := range outs {
			ng.AddOutput(o, "")
		}
		graphsEqual(t, g, ng, 64, rng)
	}
}

func TestExtractConeSupport(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	_ = g.AddInput("c") // not in the cone
	d := g.AddInput("d")
	ab := g.And(a, b)
	root := g.Xor(ab, d)
	g.AddOutput(root, "f")
	cone, sup := g.ExtractCone(root)
	if len(sup) != 3 {
		t.Fatalf("support: got %v, want 3 PIs", sup)
	}
	if cone.NumInputs() != 3 || cone.NumOutputs() != 1 {
		t.Fatalf("cone interface wrong: %v", cone.Stats())
	}
	// cone(a,b,d) must equal (a&b)^d
	for m := 0; m < 8; m++ {
		pa, pb, pd := m&1 == 1, m>>1&1 == 1, m>>2&1 == 1
		out := cone.Eval([]bool{pa, pb, pd})
		if out[0] != ((pa && pb) != pd) {
			t.Fatalf("cone wrong at %d", m)
		}
	}
}

func TestTFIAndSupport(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	ab := g.And(a, b)
	abc := g.And(ab, c)
	g.AddOutput(abc, "f")
	tfi := g.TFI(abc)
	if len(tfi) != 5 {
		t.Fatalf("TFI size: got %d want 5", len(tfi))
	}
	sup := g.Support(ab)
	if len(sup) != 2 || sup[0] != 0 || sup[1] != 1 {
		t.Fatalf("Support(ab) = %v", sup)
	}
}

func TestTFO(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	ab := g.And(a, b)
	x := g.Xor(ab, a)
	g.AddOutput(x, "f")
	tfo := g.TFO(ab.Var())
	if !tfo[ab.Var()] || !tfo[x.Var()] {
		t.Fatal("TFO missing nodes")
	}
	if tfo[a.Var()] {
		t.Fatal("TFO contains a fanin")
	}
}

func TestLevels(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	ab := g.And(a, b)
	abc := g.And(ab, c)
	g.AddOutput(abc, "f")
	lv, d := g.Levels()
	if d != 2 {
		t.Fatalf("depth: got %d want 2", d)
	}
	if lv[ab.Var()] != 1 || lv[abc.Var()] != 2 {
		t.Fatal("levels wrong")
	}
}

func TestStats(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	g.AddOutput(g.Maj(g.And(a, b), g.Xor(b, c), c), "f")
	st := g.Stats()
	if st.Ands != 1 || st.Xors != 1 || st.Majs != 1 || st.Nodes() != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// Property: strashing means building the same expression twice never adds
// nodes the second time.
func TestStrashingIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 5, 30)
		before := g.MaxVar()
		// Re-import the graph into itself over the same inputs.
		outs := g.Import(g, g.Inputs())
		for i, o := range outs {
			if o != g.Output(i) {
				return false
			}
		}
		return g.MaxVar() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Copy is independent — mutating the copy leaves the original
// untouched.
func TestCopyIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 4, 20)
	n := g.MaxVar()
	cp := g.Copy()
	x := cp.AddInput("extra")
	cp.AddOutput(cp.And(x, cp.Input(0)), "extra")
	if g.MaxVar() != n || g.NumInputs() == cp.NumInputs() {
		t.Fatal("Copy shares state with the original")
	}
}

func TestEvalPanicsOnBadPattern(t *testing.T) {
	g := New()
	g.AddInput("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong pattern length")
		}
	}()
	g.Eval([]bool{})
}

func TestAccessorsAndStrings(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	ab := g.And(a, b)
	x := g.Xor(a, b)
	m := g.Maj(a, b, ab)
	g.AddOutput(ab, "f")

	if fi := g.Fanins(ab.Var()); len(fi) != 2 || fi[0] != a || fi[1] != b {
		t.Fatal("Fanins accessor wrong")
	}
	if s := a.String(); s != "n1" {
		t.Fatalf("lit string %q", s)
	}
	if s := a.Not().String(); s != "!n1" {
		t.Fatalf("complemented lit string %q", s)
	}
	for _, op := range []Op{OpConst, OpInput, OpAnd, OpXor, OpMaj, Op(99)} {
		if op.String() == "" {
			t.Fatal("empty op string")
		}
	}
	if idx, ok := g.InputIndex(a.Var()); !ok || idx != 0 {
		t.Fatal("InputIndex wrong for input")
	}
	if _, ok := g.InputIndex(ab.Var()); ok {
		t.Fatal("InputIndex accepted a logic node")
	}
	if g.InputName(1) != "b" || g.OutputName(0) != "f" {
		t.Fatal("input/output names wrong")
	}
	g.SetOutput(0, x)
	if g.Output(0) != x {
		t.Fatal("SetOutput failed")
	}
	if g.Stats().String() == "" {
		t.Fatal("stats string empty")
	}
	_ = m
}

func TestImportPanicsOnBadMap(t *testing.T) {
	src := New()
	a := src.AddInput("a")
	src.AddOutput(a, "f")
	dst := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short piMap")
		}
	}()
	dst.Import(src, nil)
}

func TestImportConePanicsOnOutOfRangeLit(t *testing.T) {
	src := New()
	a := src.AddInput("a")
	b := src.AddInput("b")
	src.AddOutput(src.And(a, b), "f")
	dst := New()
	x := dst.AddInput("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range literal")
		}
	}()
	dst.Import(src, []Lit{x, MkLit(999, false)})
}

func TestEvalLits(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	ab := g.And(a, b)
	x := g.Xor(a, b)
	g.AddOutput(ab, "f")
	for m := 0; m < 4; m++ {
		pat := []bool{m&1 == 1, m>>1&1 == 1}
		vals := g.EvalLits(pat, ab, x.Not(), ConstTrue)
		if vals[0] != (pat[0] && pat[1]) {
			t.Fatalf("EvalLits AND wrong at %v", pat)
		}
		if vals[1] != !(pat[0] != pat[1]) {
			t.Fatalf("EvalLits complemented XOR wrong at %v", pat)
		}
		if !vals[2] {
			t.Fatal("EvalLits constant wrong")
		}
	}
}

func TestExtractBounded(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	ab := g.And(a, b)
	abc := g.Xor(ab, c)
	top := g.Maj(abc, a, c.Not())
	g.AddOutput(top, "f")

	// Cut at {ab, c}: the bounded cone computes maj(ab^c, a, !c) with
	// inputs {a (PI reached), ab (boundary), c (boundary)}.
	sub, leaves := g.ExtractBounded([]Lit{top}, []uint32{ab.Var(), c.Var()})
	if sub.NumInputs() != 3 || sub.NumOutputs() != 1 {
		t.Fatalf("bounded interface: %v (leaves %v)", sub.Stats(), leaves)
	}
	// Verify functionally: for all assignments to (a, ab, c).
	// Identify leaf order: leaves sorted ascending by source var.
	for m := 0; m < 8; m++ {
		vals := map[uint32]bool{}
		for i, lv := range leaves {
			vals[lv] = m>>uint(i)&1 == 1
		}
		pat := make([]bool, 3)
		for i, lv := range leaves {
			pat[i] = vals[lv]
		}
		got := sub.Eval(pat)[0]
		av, abv, cv := vals[a.Var()], vals[ab.Var()], vals[c.Var()]
		x := abv != cv
		want := (x && av) || (x && !cv) || (av && !cv)
		if got != want {
			t.Fatalf("bounded cone wrong at %v", vals)
		}
	}
}
