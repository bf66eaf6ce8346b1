// Package netlistgen synthesizes the benchmark circuits used in the
// ObfusLock evaluation. The published suites (ISCAS'85/'89, ITC'99, EPFL)
// are not redistributable here, so this package builds functional
// stand-ins:
//
//   - arithmetic benchmarks (c6288, square, max, c7552) are real circuits —
//     an array multiplier, a squarer, a 4-way wide-word maximum, and an
//     adder/comparator/parity datapath;
//   - control-dominated ISCAS'89/ITC'99 benchmarks are seeded structured
//     random logic with realistic building blocks (decoders, parity trees,
//     mux networks, layered random gates) matched in I/O and node count.
//
// All generators are deterministic for a given seed.
package netlistgen

import (
	"fmt"
	"math/rand"

	"obfuslock/internal/aig"
)

// Multiplier returns an n×n array multiplier (2n inputs, 2n outputs).
func Multiplier(n int) *aig.AIG {
	g := aig.New()
	g.Name = fmt.Sprintf("mult%dx%d", n, n)
	a := make([]aig.Lit, n)
	b := make([]aig.Lit, n)
	for i := range a {
		a[i] = g.AddInput(fmt.Sprintf("a%d", i))
	}
	for i := range b {
		b[i] = g.AddInput(fmt.Sprintf("b%d", i))
	}
	prods := multiplyArray(g, a, b)
	for i, p := range prods {
		g.AddOutput(p, fmt.Sprintf("p%d", i))
	}
	return g
}

// multiplyArray builds the partial-product array and carry-save reduction
// for a*b, returning len(a)+len(b) sum bits.
func multiplyArray(g *aig.AIG, a, b []aig.Lit) []aig.Lit {
	n, m := len(a), len(b)
	cols := make([][]aig.Lit, n+m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			cols[i+j] = append(cols[i+j], g.And(a[i], b[j]))
		}
	}
	// Carry-save reduction: repeatedly compress columns with full/half
	// adders until every column has at most two bits, then ripple.
	for {
		again := false
		for c := 0; c < len(cols); c++ {
			for len(cols[c]) > 2 {
				again = true
				x, y, z := cols[c][0], cols[c][1], cols[c][2]
				cols[c] = cols[c][3:]
				s := g.Xor(g.Xor(x, y), z)
				carry := g.Maj(x, y, z)
				cols[c] = append(cols[c], s)
				if c+1 < len(cols) {
					cols[c+1] = append(cols[c+1], carry)
				}
			}
		}
		if !again {
			break
		}
	}
	// Final ripple addition of the two remaining rows.
	out := make([]aig.Lit, n+m)
	carry := aig.ConstFalse
	for c := 0; c < len(cols); c++ {
		var x, y aig.Lit = aig.ConstFalse, aig.ConstFalse
		if len(cols[c]) > 0 {
			x = cols[c][0]
		}
		if len(cols[c]) > 1 {
			y = cols[c][1]
		}
		out[c] = g.Xor(g.Xor(x, y), carry)
		carry = g.Maj(x, y, carry)
	}
	return out
}

// Squarer returns an n-bit squarer (n inputs, 2n outputs), the "square"
// EPFL benchmark stand-in.
func Squarer(n int) *aig.AIG {
	g := aig.New()
	g.Name = fmt.Sprintf("square%d", n)
	a := make([]aig.Lit, n)
	for i := range a {
		a[i] = g.AddInput(fmt.Sprintf("a%d", i))
	}
	prods := multiplyArray(g, a, a)
	for i, p := range prods {
		g.AddOutput(p, fmt.Sprintf("p%d", i))
	}
	return g
}

// lessThan returns the literal "a < b" for equal-width vectors (LSB first).
func lessThan(g *aig.AIG, a, b []aig.Lit) aig.Lit {
	lt := aig.ConstFalse
	for i := 0; i < len(a); i++ { // LSB to MSB; MSB decides last
		eq := g.Xor(a[i], b[i]).Not()
		bi := g.And(a[i].Not(), b[i])
		lt = g.Or(bi, g.And(eq, lt))
	}
	return lt
}

// mux2 selects word t when s else e.
func mux2(g *aig.AIG, s aig.Lit, t, e []aig.Lit) []aig.Lit {
	out := make([]aig.Lit, len(t))
	for i := range t {
		out[i] = g.Mux(s, t[i], e[i])
	}
	return out
}

// Max returns the EPFL-max stand-in: the maximum of k w-bit unsigned words
// (k*w inputs, w outputs plus a selector indicator per word).
func Max(k, w int) *aig.AIG {
	g := aig.New()
	g.Name = fmt.Sprintf("max%dx%d", k, w)
	words := make([][]aig.Lit, k)
	for i := range words {
		words[i] = make([]aig.Lit, w)
		for j := range words[i] {
			words[i][j] = g.AddInput(fmt.Sprintf("x%d_%d", i, j))
		}
	}
	best := words[0]
	for i := 1; i < k; i++ {
		lt := lessThan(g, best, words[i])
		best = mux2(g, lt, words[i], best)
	}
	for j, l := range best {
		g.AddOutput(l, fmt.Sprintf("max%d", j))
	}
	return g
}

// AdderCmp is the c7552 stand-in: an n-bit adder and subtractor, magnitude
// and equality comparators, and per-byte parity networks over two operands
// (the real c7552 is an adder/comparator with parity checking).
func AdderCmp(n int) *aig.AIG {
	g := aig.New()
	g.Name = fmt.Sprintf("addercmp%d", n)
	a := make([]aig.Lit, n)
	b := make([]aig.Lit, n)
	for i := range a {
		a[i] = g.AddInput(fmt.Sprintf("a%d", i))
	}
	for i := range b {
		b[i] = g.AddInput(fmt.Sprintf("b%d", i))
	}
	cin := g.AddInput("cin")
	carry := cin
	for i := 0; i < n; i++ {
		s := g.Xor(g.Xor(a[i], b[i]), carry)
		carry = g.Maj(a[i], b[i], carry)
		g.AddOutput(s, fmt.Sprintf("s%d", i))
	}
	g.AddOutput(carry, "cout")
	// Difference a - b = a + ~b + 1.
	borrow := aig.ConstTrue
	for i := 0; i < n; i++ {
		d := g.Xor(g.Xor(a[i], b[i].Not()), borrow)
		borrow = g.Maj(a[i], b[i].Not(), borrow)
		g.AddOutput(d, fmt.Sprintf("d%d", i))
	}
	g.AddOutput(lessThan(g, a, b), "lt")
	eq := aig.ConstTrue
	for i := 0; i < n; i++ {
		eq = g.And(eq, g.Xor(a[i], b[i]).Not())
	}
	g.AddOutput(eq, "eq")
	for base := 0; base < n; base += 8 {
		par := aig.ConstFalse
		for i := base; i < base+8 && i < n; i++ {
			par = g.Xor(par, g.Xor(a[i], b[i]))
		}
		g.AddOutput(par, fmt.Sprintf("par%d", base/8))
	}
	return g
}

// ControlSpec parameterizes a structured random control-logic circuit.
type ControlSpec struct {
	Name        string
	Inputs      int
	Outputs     int
	TargetNodes int
	Seed        int64
}

// Control generates a control-dominated circuit: decoders, parity chains,
// mux networks and layered random gates, sized to roughly TargetNodes AIG
// nodes. All outputs depend on substantial input cones.
func Control(spec ControlSpec) *aig.AIG {
	g := aig.New()
	g.Name = spec.Name
	rng := rand.New(rand.NewSource(spec.Seed))
	ins := make([]aig.Lit, spec.Inputs)
	for i := range ins {
		ins[i] = g.AddInput(fmt.Sprintf("x%d", i))
	}
	pool := append([]aig.Lit(nil), ins...)
	pick := func() aig.Lit {
		// Bias toward recently created signals for depth.
		idx := len(pool) - 1 - rng.Intn(1+min(len(pool)-1, 64))
		l := pool[idx]
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		return l
	}
	pickInput := func() aig.Lit {
		l := ins[rng.Intn(len(ins))]
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		return l
	}
	for g.NumNodes() < spec.TargetNodes {
		switch rng.Intn(10) {
		case 0: // decoder term: AND of 3-6 inputs
			k := 3 + rng.Intn(4)
			lits := make([]aig.Lit, k)
			for i := range lits {
				lits[i] = pickInput()
			}
			pool = append(pool, g.AndN(lits...))
		case 1: // parity chain over 3-8 signals
			k := 3 + rng.Intn(6)
			acc := pick()
			for i := 1; i < k; i++ {
				acc = g.Xor(acc, pick())
			}
			pool = append(pool, acc)
		case 2: // mux
			pool = append(pool, g.Mux(pick(), pick(), pick()))
		case 3: // majority (carry-like)
			pool = append(pool, g.Maj(pick(), pick(), pick()))
		case 4, 5, 6: // plain AND
			pool = append(pool, g.And(pick(), pick()))
		case 7, 8: // OR
			pool = append(pool, g.Or(pick(), pick()))
		default: // XOR
			pool = append(pool, g.Xor(pick(), pick()))
		}
	}
	// Outputs: drawn from the deepest third of the pool so cones are large.
	lo := len(pool) * 2 / 3
	for i := 0; i < spec.Outputs; i++ {
		l := pool[lo+rng.Intn(len(pool)-lo)]
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		g.AddOutput(l, fmt.Sprintf("y%d", i))
	}
	return g
}

// Benchmark identifies one circuit of the evaluation suite.
type Benchmark struct {
	Name       string
	PaperNodes int // AIG node count reported in the paper's Table I
	Build      func() *aig.AIG
}

// lowered converts a generator to its pure-AND AIG form, matching the
// paper's methodology of mapping every benchmark to AIG before counting
// nodes.
func lowered(build func() *aig.AIG) func() *aig.AIG {
	return func() *aig.AIG {
		g := build().LowerToAnd()
		return g
	}
}

// Catalog returns the ten Table I benchmarks, ordered as in the paper.
// Arithmetic benchmarks are lowered to pure-AND AIGs as in the paper's
// node-count methodology; node counts land near the paper's values and the
// harness records exact values at run time.
func Catalog() []Benchmark {
	return []Benchmark{
		{"s9234", 3677, func() *aig.AIG {
			return Control(ControlSpec{Name: "s9234", Inputs: 247, Outputs: 250, TargetNodes: 3677, Seed: 9234})
		}},
		{"c7552", 4003, lowered(func() *aig.AIG { return AdderCmp(96) })},
		{"c6288", 4660, lowered(func() *aig.AIG { return Multiplier(16) })},
		{"max", 5907, lowered(func() *aig.AIG { return Max(4, 128) })},
		{"s15850", 6820, func() *aig.AIG {
			return Control(ControlSpec{Name: "s15850", Inputs: 611, Outputs: 684, TargetNodes: 6820, Seed: 15850})
		}},
		{"b14", 10635, func() *aig.AIG {
			return Control(ControlSpec{Name: "b14", Inputs: 277, Outputs: 299, TargetNodes: 10635, Seed: 14})
		}},
		{"s38417", 18781, func() *aig.AIG {
			return Control(ControlSpec{Name: "s38417", Inputs: 1664, Outputs: 1742, TargetNodes: 18781, Seed: 38417})
		}},
		{"b20", 24292, func() *aig.AIG {
			return Control(ControlSpec{Name: "b20", Inputs: 522, Outputs: 512, TargetNodes: 24292, Seed: 20})
		}},
		{"s38584", 24296, func() *aig.AIG {
			return Control(ControlSpec{Name: "s38584", Inputs: 1464, Outputs: 1730, TargetNodes: 24296, Seed: 38584})
		}},
		{"square", 39248, lowered(func() *aig.AIG { return Squarer(64) })},
	}
}

// SmallSuite returns reduced-size counterparts of the catalog used by unit
// tests and the scaled benchmark harness, preserving each circuit family.
func SmallSuite() []Benchmark {
	return []Benchmark{
		{"s9234-s", 400, func() *aig.AIG {
			return Control(ControlSpec{Name: "s9234-s", Inputs: 48, Outputs: 32, TargetNodes: 400, Seed: 9234})
		}},
		{"c7552-s", 400, func() *aig.AIG { return AdderCmp(16) }},
		{"c6288-s", 500, func() *aig.AIG { return Multiplier(6) }},
		{"max-s", 500, func() *aig.AIG { return Max(4, 24) }},
		{"b14-s", 800, func() *aig.AIG {
			return Control(ControlSpec{Name: "b14-s", Inputs: 64, Outputs: 40, TargetNodes: 800, Seed: 14})
		}},
		{"square-s", 700, func() *aig.AIG { return Squarer(12) }},
	}
}
