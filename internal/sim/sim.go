// Package sim provides 64-way bit-parallel simulation of AIGs.
//
// A simulation vector assigns one uint64 word array per node; bit i of word
// w carries the node value under input pattern 64*w+i. Random simulation is
// the workhorse behind skewness estimation, signature-based equivalence
// filtering and switching-activity extraction for power estimation.
package sim

import (
	"math/bits"
	"math/rand"

	"obfuslock/internal/aig"
)

// Vectors holds per-node simulation words for one run. The zero value
// is ready for RunPatterns, and a Vectors re-run by RunPatterns reuses
// its words, so a caller that simulates batch after batch (the batched
// oracle and the key-cone folding of the DIP attacks) stops allocating
// once its widest batch has run.
type Vectors struct {
	Words int      // words per node
	vals  []uint64 // var v's words are vals[v*Words : (v+1)*Words]
	g     *aig.AIG
}

// RandomInputs draws words*64 uniform input patterns for n inputs.
func RandomInputs(n, words int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([][]uint64, n)
	for i := range in {
		in[i] = make([]uint64, words)
		for w := range in[i] {
			in[i][w] = rng.Uint64()
		}
	}
	return in
}

// ExhaustiveInputs returns input words enumerating all 2^n patterns of n
// inputs: pattern p sets input i to bit i of p, so every node's words are
// its exact truth table. Below 6 inputs the patterns repeat to fill one
// word.
func ExhaustiveInputs(n int) [][]uint64 {
	low := [6]uint64{
		0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
	}
	words := 1
	if n > 6 {
		words = 1 << (n - 6)
	}
	in := make([][]uint64, n)
	for i := range in {
		in[i] = make([]uint64, words)
		for w := range in[i] {
			switch {
			case i < 6:
				in[i][w] = low[i]
			case w>>(i-6)&1 == 1:
				in[i][w] = ^uint64(0)
			}
		}
	}
	return in
}

// Run simulates the whole graph under the given input words (one slice per
// primary input, all the same length).
func Run(g *aig.AIG, inputs [][]uint64) *Vectors {
	if len(inputs) != g.NumInputs() {
		panic("sim: input count mismatch")
	}
	words := 0
	if len(inputs) > 0 {
		words = len(inputs[0])
	}
	v := &Vectors{}
	v.reset(g, words)
	for i, in := range inputs {
		if len(in) != words {
			panic("sim: ragged input words")
		}
		copy(v.Node(g.InputVar(i)), in)
	}
	v.eval(nil)
	return v
}

// RunPatterns re-runs v on g under a batch of input patterns, packed 64
// to a word into v's own words: pattern j drives bit j%64 of word j/64.
// Each pattern binds g's first m inputs; any later input reads as zero.
// Vars with skip[var] set (skip may be nil) are left unevaluated and
// hold stale words, so no evaluated var may depend on one.
func (v *Vectors) RunPatterns(g *aig.AIG, xs [][]bool, m int, skip []bool) {
	v.reset(g, (len(xs)+63)/64)
	for i := 0; i < g.NumInputs(); i++ {
		clear(v.Node(g.InputVar(i)))
	}
	for j, x := range xs {
		if len(x) != m {
			panic("sim: pattern width mismatch")
		}
		for i, b := range x {
			if b {
				v.Node(g.InputVar(i))[j/64] |= 1 << (uint(j) % 64)
			}
		}
	}
	v.eval(skip)
}

// reset sizes v for g at the given width, reusing its words' capacity,
// and zeroes the constant node.
func (v *Vectors) reset(g *aig.AIG, words int) {
	n := (int(g.MaxVar()) + 1) * words
	if cap(v.vals) < n {
		v.vals = make([]uint64, n)
	}
	v.vals, v.g, v.Words = v.vals[:n], g, words
	clear(v.Node(0))
}

// eval computes every non-input var not marked in skip from its fanins,
// in topological (variable) order.
func (v *Vectors) eval(skip []bool) {
	g := v.g
	for n := uint32(1); n <= g.MaxVar(); n++ {
		op := g.Op(n)
		if op == aig.OpInput || skip != nil && skip[n] {
			continue
		}
		dst := v.Node(n)
		fan := g.Fanins(n)
		a, ma := v.Node(fan[0].Var()), compl(fan[0])
		b, mb := v.Node(fan[1].Var()), compl(fan[1])
		switch op {
		case aig.OpAnd:
			for w := range dst {
				dst[w] = (a[w] ^ ma) & (b[w] ^ mb)
			}
		case aig.OpXor:
			for w := range dst {
				dst[w] = a[w] ^ ma ^ b[w] ^ mb
			}
		case aig.OpMaj:
			c, mc := v.Node(fan[2].Var()), compl(fan[2])
			for w := range dst {
				x, y, z := a[w]^ma, b[w]^mb, c[w]^mc
				dst[w] = (x & y) | (x & z) | (y & z)
			}
		}
	}
}

// compl is the word mask that applies a literal's complement.
func compl(l aig.Lit) uint64 {
	if l.IsCompl() {
		return ^uint64(0)
	}
	return 0
}

// RunRandom simulates the graph on words*64 random patterns.
func RunRandom(g *aig.AIG, words int, seed int64) *Vectors {
	return Run(g, RandomInputs(g.NumInputs(), words, seed))
}

// Node returns the raw words of a variable (positive phase).
func (v *Vectors) Node(n uint32) []uint64 {
	lo, hi := int(n)*v.Words, int(n+1)*v.Words
	return v.vals[lo:hi:hi]
}

// Bit returns the value of a literal under pattern j.
func (v *Vectors) Bit(l aig.Lit, j int) bool {
	return v.vals[int(l.Var())*v.Words+j/64]>>(uint(j)%64)&1 == 1 != l.IsCompl()
}

// Lit returns a fresh copy of the words of a literal, complement applied.
func (v *Vectors) Lit(l aig.Lit) []uint64 {
	src := v.Node(l.Var())
	out := make([]uint64, len(src))
	if l.IsCompl() {
		for w := range src {
			out[w] = ^src[w]
		}
	} else {
		copy(out, src)
	}
	return out
}

// Output returns the words of the i-th primary output.
func (v *Vectors) Output(i int) []uint64 { return v.Lit(v.g.Output(i)) }

// OnesFraction returns the fraction of simulated patterns on which the
// literal evaluates to 1.
func (v *Vectors) OnesFraction(l aig.Lit) float64 {
	if v.Words == 0 {
		return 0
	}
	ones := 0
	for _, w := range v.Node(l.Var()) {
		ones += bits.OnesCount64(w)
	}
	total := v.Words * 64
	if l.IsCompl() {
		ones = total - ones
	}
	return float64(ones) / float64(total)
}

// ToggleFraction returns the per-pattern toggle rate of a variable: the
// fraction of adjacent pattern pairs on which the node changes value.
// Used as a switching-activity proxy for dynamic power estimation.
func (v *Vectors) ToggleFraction(n uint32) float64 {
	total := v.Words*64 - 1
	if total <= 0 {
		return 0
	}
	toggles := 0
	var prev uint64 // last bit of previous word
	for wi, w := range v.Node(n) {
		shifted := w<<1 | prev
		if wi == 0 {
			// No predecessor for very first pattern: mask bit 0.
			toggles += bits.OnesCount64((w ^ shifted) &^ 1)
		} else {
			toggles += bits.OnesCount64(w ^ shifted)
		}
		prev = w >> 63
	}
	return float64(toggles) / float64(total)
}

// Distinguishes reports whether two literals differ on any simulated
// pattern, and if so returns the index of one distinguishing pattern.
func (v *Vectors) Distinguishes(a, b aig.Lit) (int, bool) {
	wa, wb := v.Node(a.Var()), v.Node(b.Var())
	inv := a.IsCompl() != b.IsCompl()
	for w := range wa {
		d := wa[w] ^ wb[w]
		if inv {
			d = ^d
		}
		if d != 0 {
			return w*64 + bits.TrailingZeros64(d), true
		}
	}
	return 0, false
}

// Pattern reconstructs input pattern idx from the input words.
func Pattern(inputs [][]uint64, idx int) []bool {
	p := make([]bool, len(inputs))
	for i := range inputs {
		p[i] = inputs[i][idx/64]>>(idx%64)&1 == 1
	}
	return p
}

// EvalAll evaluates the graph on a single input pattern and returns the
// value of every variable, indexed by variable number (variable 0 is the
// constant false). The SAT-sweeping engine uses it to replay solver
// counterexamples against every candidate equivalence class at once.
func EvalAll(g *aig.AIG, pattern []bool) []bool {
	if len(pattern) != g.NumInputs() {
		panic("sim: EvalAll pattern length mismatch")
	}
	val := make([]bool, g.MaxVar()+1)
	for i := 0; i < g.NumInputs(); i++ {
		val[g.InputVar(i)] = pattern[i]
	}
	lv := func(l aig.Lit) bool { return val[l.Var()] != l.IsCompl() }
	for n := uint32(1); n <= g.MaxVar(); n++ {
		fan := g.Fanins(n)
		switch g.Op(n) {
		case aig.OpAnd:
			val[n] = lv(fan[0]) && lv(fan[1])
		case aig.OpXor:
			val[n] = lv(fan[0]) != lv(fan[1])
		case aig.OpMaj:
			a, b, c := lv(fan[0]), lv(fan[1]), lv(fan[2])
			val[n] = (a && b) || (a && c) || (b && c)
		}
	}
	return val
}
