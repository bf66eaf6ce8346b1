package sim

import (
	"math"
	"math/rand"
	"testing"

	"obfuslock/internal/aig"
)

func buildXorChain(n int) *aig.AIG {
	g := aig.New()
	lits := g.AddInputs(n)
	acc := lits[0]
	for _, l := range lits[1:] {
		acc = g.Xor(acc, l)
	}
	g.AddOutput(acc, "parity")
	return g
}

func TestRunMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := aig.New()
	in := g.AddInputs(6)
	a := g.And(in[0], in[1].Not())
	b := g.Xor(a, in[2])
	c := g.Maj(b, in[3], in[4].Not())
	d := g.Or(c, in[5])
	g.AddOutput(d, "f")
	g.AddOutput(b.Not(), "g")

	inputs := RandomInputs(6, 2, 42)
	v := Run(g, inputs)
	for idx := 0; idx < 128; idx++ {
		pat := Pattern(inputs, idx)
		want := g.Eval(pat)
		for o := 0; o < g.NumOutputs(); o++ {
			got := v.Output(o)[idx/64]>>(idx%64)&1 == 1
			if got != want[o] {
				t.Fatalf("pattern %d output %d: sim %v eval %v", idx, o, got, want[o])
			}
		}
	}
	_ = rng
}

func TestOnesFraction(t *testing.T) {
	g := buildXorChain(8)
	v := RunRandom(g, 64, 1)
	// Parity of uniform bits is balanced.
	f := v.OnesFraction(g.Output(0))
	if math.Abs(f-0.5) > 0.05 {
		t.Fatalf("parity OnesFraction = %v, want ~0.5", f)
	}
	// AND of 4 inputs has probability 1/16.
	g2 := aig.New()
	in := g2.AddInputs(4)
	and4 := g2.AndN(in...)
	g2.AddOutput(and4, "f")
	v2 := RunRandom(g2, 256, 2)
	f2 := v2.OnesFraction(and4)
	if math.Abs(f2-1.0/16) > 0.02 {
		t.Fatalf("AND4 OnesFraction = %v, want ~1/16", f2)
	}
	// Complement literal flips the fraction.
	if math.Abs(v2.OnesFraction(and4.Not())-(1-f2)) > 1e-12 {
		t.Fatal("complement fraction inconsistent")
	}
}

func TestSignatureAndDistinguish(t *testing.T) {
	g := aig.New()
	in := g.AddInputs(4)
	f1 := g.And(in[0], in[1])
	f2 := g.And(in[1], in[0]) // same node due to strashing
	f3 := g.Or(in[0], in[1])
	g.AddOutput(f1, "")
	v := RunRandom(g, 8, 3)
	if _, diff := v.Distinguishes(f1, f1.Not()); !diff {
		t.Fatal("a literal and its complement not distinguished")
	}
	if _, diff := v.Distinguishes(f1, f2); diff {
		t.Fatal("identical literals distinguished")
	}
	idx, diff := v.Distinguishes(f1, f3)
	if !diff {
		t.Fatal("AND and OR not distinguished")
	}
	inputs := RandomInputs(4, 8, 3)
	_ = inputs
	// Replay: f1 and f3 must actually differ on that pattern index.
	pat := Pattern(RandomInputs(4, 8, 3), idx)
	g.SetOutput(0, f1)
	a := g.Eval(pat)[0]
	g.SetOutput(0, f3)
	b := g.Eval(pat)[0]
	if a == b {
		t.Fatal("reported distinguishing pattern does not distinguish")
	}
}

func TestToggleFraction(t *testing.T) {
	g := aig.New()
	a := g.AddInput("a")
	g.AddOutput(a, "f")
	// Alternating pattern toggles every step.
	in := [][]uint64{make([]uint64, 2)}
	in[0][0] = 0xAAAAAAAAAAAAAAAA
	in[0][1] = 0xAAAAAAAAAAAAAAAA
	v := Run(g, in)
	if tf := v.ToggleFraction(a.Var()); math.Abs(tf-1.0) > 1e-9 {
		t.Fatalf("alternating toggle fraction = %v, want 1", tf)
	}
	// Constant pattern never toggles.
	in2 := [][]uint64{{^uint64(0), ^uint64(0)}}
	v2 := Run(g, in2)
	if tf := v2.ToggleFraction(a.Var()); tf != 0 {
		t.Fatalf("constant toggle fraction = %v, want 0", tf)
	}
}

func TestRunPanicsOnMismatch(t *testing.T) {
	g := aig.New()
	g.AddInputs(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(g, make([][]uint64, 2))
}

func BenchmarkRunRandom(b *testing.B) {
	g := buildXorChain(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunRandom(g, 16, int64(i))
	}
}

func TestExhaustiveInputsEnumerate(t *testing.T) {
	for _, n := range []int{3, 6, 9} {
		in := ExhaustiveInputs(n)
		for p := 0; p < 1<<n; p++ {
			for i, b := range Pattern(in, p) {
				if b != (p>>i&1 == 1) {
					t.Fatalf("n=%d pattern %d input %d = %t", n, p, i, b)
				}
			}
		}
	}
}

// RunPatterns packs boolean patterns into words and simulates as Run
// does, across re-runs of one Vectors at different batch widths. A
// pattern narrower than the graph drives its remaining inputs with
// zero, and a skipped var is left unevaluated.
func TestRunPatternsMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := aig.New()
	in := g.AddInputs(6)
	a := g.And(in[0], in[1].Not())
	b := g.Xor(a, in[2])
	c := g.Maj(b, in[3], in[4].Not())
	g.AddOutput(g.Or(c, in[5]), "f")
	g.AddOutput(b.Not(), "g")
	skip := make([]bool, g.MaxVar()+1)
	skip[c.Var()] = true

	var v Vectors
	for _, n := range []int{70, 3, 130, 64, 1} {
		xs := make([][]bool, n)
		for j := range xs {
			xs[j] = make([]bool, 6)
			for i := range xs[j] {
				xs[j][i] = rng.Intn(2) == 1
			}
		}
		v.RunPatterns(g, xs, 6, nil)
		for j, x := range xs {
			want := g.Eval(x)
			for o := range want {
				if got := v.Bit(g.Output(o), j); got != want[o] {
					t.Fatalf("batch of %d, pattern %d, output %d: sim %v eval %v", n, j, o, got, want[o])
				}
			}
		}

		narrow := make([][]bool, n)
		for j, x := range xs {
			narrow[j] = x[:4]
			clear(x[4:])
		}
		stale := v.Node(c.Var())
		for w := range stale {
			stale[w] = 0x5555
		}
		v.RunPatterns(g, narrow, 4, skip)
		for _, w := range v.Node(c.Var()) {
			if w != 0x5555 {
				t.Fatalf("batch of %d: skipped var was evaluated", n)
			}
		}
		for j, x := range xs {
			if got, want := v.Bit(b, j), g.EvalLits(x, b)[0]; got != want {
				t.Fatalf("batch of %d, pattern %d: narrow sim %v eval %v", n, j, got, want)
			}
		}
	}
}
