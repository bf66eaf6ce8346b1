package bench

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/cec"
	"obfuslock/internal/sim"
)

const sampleNetlist = `
# a small sample
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(f)
OUTPUT(g)
t1 = AND(a, b)
t2 = NOT(c)
t3 = OR(t1, t2)
f = NAND(t3, a)
g = XOR(a, b)
`

func TestReadSample(t *testing.T) {
	g, err := Read(strings.NewReader(sampleNetlist))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumInputs() != 3 || g.NumOutputs() != 2 {
		t.Fatalf("interface: %v", g.Stats())
	}
	// f = !((a&b | !c) & a), g = a^b — check all 8 patterns.
	for m := 0; m < 8; m++ {
		a, b, c := m&1 == 1, m>>1&1 == 1, m>>2&1 == 1
		out := g.Eval([]bool{a, b, c})
		wantF := !(((a && b) || !c) && a)
		wantG := a != b
		if out[0] != wantF || out[1] != wantG {
			t.Fatalf("minterm %d: got %v want [%v %v]", m, out, wantF, wantG)
		}
	}
}

const outOfOrderNetlist = `
INPUT(a)
INPUT(b)
OUTPUT(f)
f = AND(t, a)
t = OR(a, b)
`

func TestReadOutOfOrder(t *testing.T) {
	g, err := Read(strings.NewReader(outOfOrderNetlist))
	if err != nil {
		t.Fatal(err)
	}
	out := g.Eval([]bool{true, false})
	if !out[0] {
		t.Fatal("out-of-order netlist misparsed")
	}
}

const constWideNetlist = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(f)
OUTPUT(k)
one = vdd
zero = gnd
w = AND(a, b, c, d)
x = NOR(a, b, c)
y = XNOR(a, b, c)
f = OR(w, x, y, zero)
k = BUF(one)
`

func TestReadConstantsAndWideGates(t *testing.T) {
	g, err := Read(strings.NewReader(constWideNetlist))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 16; m++ {
		pat := []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1, m>>3&1 == 1}
		out := g.Eval(pat)
		w := pat[0] && pat[1] && pat[2] && pat[3]
		x := !(pat[0] || pat[1] || pat[2])
		y := !((pat[0] != pat[1]) != pat[2])
		if out[0] != (w || x || y) {
			t.Fatalf("minterm %d wrong", m)
		}
		if !out[1] {
			t.Fatal("vdd output must be constant 1")
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"cycle", "INPUT(a)\nOUTPUT(f)\nf = AND(g, a)\ng = AND(f, a)\n"},
		{"missing driver", "INPUT(a)\nOUTPUT(f)\nf = AND(x, a)\n"},
		{"undriven output", "INPUT(a)\nOUTPUT(f)\n"},
		{"bad gate", "INPUT(a)\nOUTPUT(f)\nf = FROB(a)\n"},
		{"malformed", "INPUT(a)\nOUTPUT(f)\nf AND a\n"},
		{"dup input", "INPUT(a)\nINPUT(a)\nOUTPUT(f)\nf = BUF(a)\n"},
		{"dup signal", "INPUT(a)\nOUTPUT(f)\nf = BUF(a)\nf = NOT(a)\n"},
		{"maj arity", "INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = MAJ(a, b)\n"},
		{"json document", "{\n  \"solver\": {\"Conflicts\": 3}\n}\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

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
		switch rng.Intn(4) {
		case 0, 1:
			lits = append(lits, g.And(pick(), pick()))
		case 2:
			lits = append(lits, g.Xor(pick(), pick()))
		default:
			lits = append(lits, g.Maj(pick(), pick(), pick()))
		}
	}
	for i := 0; i < 3; i++ {
		g.AddOutput(lits[len(lits)-1-i], "")
	}
	return g
}

// Round trip: Write then Read must preserve the function exactly.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 5+rng.Intn(4), 30+rng.Intn(40))
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, buf.String())
		}
		r, err := cec.Check(context.Background(), g, back, cec.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !r.Equivalent {
			t.Fatalf("trial %d: round trip not equivalent (cex %v)", trial, r.Counterexample)
		}
	}
}

func TestRoundTripConstOutputs(t *testing.T) {
	g := aig.New()
	a := g.AddInput("a")
	g.AddOutput(aig.ConstTrue, "t")
	g.AddOutput(aig.ConstFalse, "z")
	g.AddOutput(a.Not(), "na")
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := back.Eval([]bool{true})
	if !out[0] || out[1] || out[2] {
		t.Fatalf("const round trip wrong: %v", out)
	}
}

func TestReadOversizedLine(t *testing.T) {
	// A single gate line larger than the 1 MiB scanner buffer must fail
	// with the dedicated diagnostic, not bufio's bare "token too long".
	var sb strings.Builder
	sb.WriteString("INPUT(a)\nOUTPUT(f)\n")
	sb.WriteString("f = AND(a")
	for sb.Len() < 1<<20+4096 {
		sb.WriteString(", a")
	}
	sb.WriteString(")\n")
	_, err := Read(strings.NewReader(sb.String()))
	if err == nil {
		t.Fatal("oversized line accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "1 MiB line buffer") || !strings.Contains(msg, "line 3") {
		t.Fatalf("want a 'line 3 exceeds the 1 MiB line buffer' diagnostic, got: %v", err)
	}
}

// roundTripNetlists are accepted netlists whose signal names clash with
// the names Write generates (n<var>, <signal>_n, const0) or that Read
// cannot parse as the left-hand side of a gate.
var roundTripNetlists = []struct{ name, src string }{
	{"input named like an internal node",
		"INPUT(a)\nINPUT(n3)\nOUTPUT(o)\nx = AND(a, n3)\no = NOT(x)\n"},
	{"input named like an inverter",
		"INPUT(a)\nINPUT(a_n)\nOUTPUT(o)\nt = NOT(a)\no = AND(t, a_n)\n"},
	{"input named like the constant",
		"INPUT(const0)\nOUTPUT(z)\nOUTPUT(o)\nz = gnd\no = BUF(const0)\n"},
	{"output declared twice",
		"INPUT(a)\nINPUT(b)\nOUTPUT(o)\nOUTPUT(o)\no = AND(a, b)\n"},
	{"inverted input with '=' in its name",
		"INPUT(a=b)\nINPUT(c)\nOUTPUT(o)\nt = NOT(a=b)\no = AND(t, c)\n"},
	{"inverted input named like a comment",
		"INPUT(#a)\nINPUT(c)\nOUTPUT(o)\nt = NOT(#a)\no = AND(t, c)\n"},
	{"inverted input named like a declaration",
		"INPUT(input(a)\nINPUT(c)\nOUTPUT(o)\nt = NOT(input(a)\no = AND(t, c)\n"},
}

func TestRoundTripNames(t *testing.T) {
	for _, tc := range roundTripNetlists {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Read(strings.NewReader(tc.src))
			if err != nil {
				t.Fatalf("netlist rejected: %v", err)
			}
			checkRoundTrip(t, g)
		})
	}
}

// checkRoundTrip asserts that Write followed by Read reproduces g: the
// same interface names in the same order, simulating equal on random
// patterns.
func checkRoundTrip(t *testing.T, g *aig.AIG) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("written netlist rejected: %v\n%s", err, buf.String())
	}
	if back.NumInputs() != g.NumInputs() || back.NumOutputs() != g.NumOutputs() {
		t.Fatalf("interface changed: %v -> %v\n%s", g.Stats(), back.Stats(), buf.String())
	}
	for i := 0; i < g.NumInputs(); i++ {
		if back.InputName(i) != g.InputName(i) {
			t.Fatalf("input %d renamed %q -> %q", i, g.InputName(i), back.InputName(i))
		}
	}
	for i := 0; i < g.NumOutputs(); i++ {
		if back.OutputName(i) != g.OutputName(i) {
			t.Fatalf("output %d renamed %q -> %q", i, g.OutputName(i), back.OutputName(i))
		}
	}
	if g.NumInputs() == 0 {
		if want, got := g.Eval(nil), back.Eval(nil); !reflect.DeepEqual(want, got) {
			t.Fatalf("constant outputs changed: %v -> %v\n%s", want, got, buf.String())
		}
		return
	}
	in := sim.RandomInputs(g.NumInputs(), 4, 1)
	want, got := sim.Run(g, in), sim.Run(back, in)
	for i := 0; i < g.NumOutputs(); i++ {
		if !reflect.DeepEqual(want.Output(i), got.Output(i)) {
			t.Fatalf("output %q simulates differently after the round trip\n%s", g.OutputName(i), buf.String())
		}
	}
}

// FuzzBenchRead checks the parser against the writer: any netlist Read
// accepts must survive Write+Read with its interface and function
// intact.
func FuzzBenchRead(f *testing.F) {
	for _, src := range []string{sampleNetlist, outOfOrderNetlist, constWideNetlist} {
		f.Add(src)
	}
	for _, tc := range roundTripNetlists {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		g, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		checkRoundTrip(t, g)
	})
}
