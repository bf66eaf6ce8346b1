// Package aig implements And-Inverter Graphs (AIGs) and extended AIGs
// (XAIGs) with XOR and majority nodes, the netlist representation used
// throughout the ObfusLock framework.
//
// Nodes are identified by variables; edges are literals that carry an
// optional complement (inverter) bit, following the convention used by ABC:
// lit = 2*var + phase. Variable 0 is the constant-false node, so literal 0
// is constant false and literal 1 is constant true.
//
// Graphs are structurally hashed: And, Xor and Maj return an existing node
// when an equivalent one (up to operand order and inverter canonicalization)
// already exists. Nodes are created in topological order, so iterating
// variables from 1 to MaxVar visits fanins before fanouts.
package aig

import (
	"fmt"
	"sort"
)

// Lit is an edge in the graph: a node variable with an optional complement.
type Lit uint32

// Constant literals (variable 0 is the constant-false node).
const (
	ConstFalse Lit = 0
	ConstTrue  Lit = 1
)

// MkLit builds a literal from a variable index and a complement flag.
func MkLit(v uint32, compl bool) Lit {
	if compl {
		return Lit(2*v + 1)
	}
	return Lit(2 * v)
}

// Var returns the variable the literal points to.
func (l Lit) Var() uint32 { return uint32(l) >> 1 }

// IsCompl reports whether the literal carries an inverter.
func (l Lit) IsCompl() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// Regular strips the complement bit.
func (l Lit) Regular() Lit { return l &^ 1 }

// IsConst reports whether the literal is one of the two constants.
func (l Lit) IsConst() bool { return l.Var() == 0 }

func (l Lit) String() string {
	if l.IsCompl() {
		return fmt.Sprintf("!n%d", l.Var())
	}
	return fmt.Sprintf("n%d", l.Var())
}

// Op is the function computed by a node.
type Op uint8

// Node operations. OpConst and OpInput have no fanins.
const (
	OpConst Op = iota
	OpInput
	OpAnd
	OpXor
	OpMaj
)

func (o Op) String() string {
	switch o {
	case OpConst:
		return "const"
	case OpInput:
		return "input"
	case OpAnd:
		return "and"
	case OpXor:
		return "xor"
	case OpMaj:
		return "maj"
	}
	return "?"
}

type node struct {
	op  Op
	fan [3]Lit
}

type strashKey struct {
	op         Op
	f0, f1, f2 Lit
}

// AIG is a (possibly extended) And-Inverter Graph.
//
// The zero value is not ready for use; construct graphs with New.
type AIG struct {
	Name string

	nodes   []node
	pis     []uint32 // variables of primary inputs, in creation order
	pos     []Lit
	piNames []string
	poNames []string
	strash  map[strashKey]uint32
	piIndex map[uint32]int // var -> position in pis
}

// New returns an empty graph containing only the constant node.
func New() *AIG {
	g := &AIG{
		nodes:   make([]node, 1, 64),
		strash:  make(map[strashKey]uint32),
		piIndex: make(map[uint32]int),
	}
	g.nodes[0] = node{op: OpConst}
	return g
}

// MaxVar returns the largest variable index in use. Variables run from 0
// (constant) to MaxVar inclusive.
func (g *AIG) MaxVar() uint32 { return uint32(len(g.nodes) - 1) }

// NumNodes returns the number of logic nodes (And/Xor/Maj), the usual
// "AIG size" metric. Inputs and the constant are not counted.
func (g *AIG) NumNodes() int {
	return len(g.nodes) - 1 - len(g.pis)
}

// NumInputs returns the number of primary inputs.
func (g *AIG) NumInputs() int { return len(g.pis) }

// NumOutputs returns the number of primary outputs.
func (g *AIG) NumOutputs() int { return len(g.pos) }

// Op returns the operation of variable v.
func (g *AIG) Op(v uint32) Op { return g.nodes[v].op }

// Fanins returns the fanin literals of variable v (a view; do not modify).
func (g *AIG) Fanins(v uint32) []Lit {
	n := &g.nodes[v]
	switch n.op {
	case OpAnd, OpXor:
		return n.fan[:2]
	case OpMaj:
		return n.fan[:3]
	}
	return nil
}

// AddInput creates a new primary input and returns its (positive) literal.
func (g *AIG) AddInput(name string) Lit {
	v := uint32(len(g.nodes))
	g.nodes = append(g.nodes, node{op: OpInput})
	g.piIndex[v] = len(g.pis)
	g.pis = append(g.pis, v)
	if name == "" {
		name = fmt.Sprintf("pi%d", len(g.pis)-1)
	}
	g.piNames = append(g.piNames, name)
	return MkLit(v, false)
}

// AddInputs creates n primary inputs with default names.
func (g *AIG) AddInputs(n int) []Lit {
	lits := make([]Lit, n)
	for i := range lits {
		lits[i] = g.AddInput("")
	}
	return lits
}

// AddOutput registers a primary output driven by lit.
func (g *AIG) AddOutput(lit Lit, name string) {
	if name == "" {
		name = fmt.Sprintf("po%d", len(g.pos))
	}
	g.pos = append(g.pos, lit)
	g.poNames = append(g.poNames, name)
}

// Output returns the i-th primary output literal.
func (g *AIG) Output(i int) Lit { return g.pos[i] }

// SetOutput redirects the i-th primary output.
func (g *AIG) SetOutput(i int, lit Lit) { g.pos[i] = lit }

// Outputs returns a copy of the primary output literals.
func (g *AIG) Outputs() []Lit { return append([]Lit(nil), g.pos...) }

// Input returns the literal of the i-th primary input.
func (g *AIG) Input(i int) Lit { return MkLit(g.pis[i], false) }

// Inputs returns the literals of all primary inputs.
func (g *AIG) Inputs() []Lit {
	lits := make([]Lit, len(g.pis))
	for i, v := range g.pis {
		lits[i] = MkLit(v, false)
	}
	return lits
}

// InputVar returns the variable of the i-th primary input.
func (g *AIG) InputVar(i int) uint32 { return g.pis[i] }

// InputIndex returns the PI position of variable v and whether v is a PI.
func (g *AIG) InputIndex(v uint32) (int, bool) {
	i, ok := g.piIndex[v]
	return i, ok
}

// InputName returns the name of the i-th primary input.
func (g *AIG) InputName(i int) string { return g.piNames[i] }

// OutputName returns the name of the i-th primary output.
func (g *AIG) OutputName(i int) string { return g.poNames[i] }

func (g *AIG) newNode(op Op, f0, f1, f2 Lit) Lit {
	v := uint32(len(g.nodes))
	g.nodes = append(g.nodes, node{op: op, fan: [3]Lit{f0, f1, f2}})
	g.strash[strashKey{op, f0, f1, f2}] = v
	return MkLit(v, false)
}

func (g *AIG) lookup(op Op, f0, f1, f2 Lit) (Lit, bool) {
	if v, ok := g.strash[strashKey{op, f0, f1, f2}]; ok {
		return MkLit(v, false), true
	}
	return 0, false
}

// And returns a literal computing a AND b, reusing an existing node when
// possible and simplifying constant and trivially redundant cases.
func (g *AIG) And(a, b Lit) Lit {
	// Constant and trivial cases.
	if a == ConstFalse || b == ConstFalse || a == b.Not() {
		return ConstFalse
	}
	if a == ConstTrue || a == b {
		return b
	}
	if b == ConstTrue {
		return a
	}
	if a > b {
		a, b = b, a
	}
	if l, ok := g.lookup(OpAnd, a, b, 0); ok {
		return l
	}
	return g.newNode(OpAnd, a, b, 0)
}

// Or returns a literal computing a OR b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// AndN conjoins an arbitrary number of literals (balanced tree).
func (g *AIG) AndN(lits ...Lit) Lit {
	switch len(lits) {
	case 0:
		return ConstTrue
	case 1:
		return lits[0]
	}
	mid := len(lits) / 2
	return g.And(g.AndN(lits[:mid]...), g.AndN(lits[mid:]...))
}

// OrN disjoins an arbitrary number of literals (balanced tree).
func (g *AIG) OrN(lits ...Lit) Lit {
	switch len(lits) {
	case 0:
		return ConstFalse
	case 1:
		return lits[0]
	}
	mid := len(lits) / 2
	return g.Or(g.OrN(lits[:mid]...), g.OrN(lits[mid:]...))
}

// Xor returns a literal computing a XOR b as a native XOR node (extended
// AIG). The stored node is canonical: both fanins regular, ordered, with the
// parity pushed to the output literal.
func (g *AIG) Xor(a, b Lit) Lit {
	compl := a.IsCompl() != b.IsCompl()
	a, b = a.Regular(), b.Regular()
	if a == b {
		return ConstFalse.NotIf(compl)
	}
	if a == ConstFalse {
		return b.NotIf(compl)
	}
	if b == ConstFalse {
		return a.NotIf(compl)
	}
	if a > b {
		a, b = b, a
	}
	if l, ok := g.lookup(OpXor, a, b, 0); ok {
		return l.NotIf(compl)
	}
	return g.newNode(OpXor, a, b, 0).NotIf(compl)
}

// XorAnd returns a XOR b built from AND nodes only (no native XOR node).
func (g *AIG) XorAnd(a, b Lit) Lit {
	return g.And(g.And(a, b.Not()).Not(), g.And(a.Not(), b).Not()).Not()
}

// Maj returns a literal computing the majority of a, b, c as a native MAJ
// node. Canonicalization: operands sorted; if two or more operands are
// complemented, all are flipped and the complement moves to the output
// (majority is self-dual).
func (g *AIG) Maj(a, b, c Lit) Lit {
	// Pairwise simplifications.
	if a == b {
		return a
	}
	if a == c {
		return a
	}
	if b == c {
		return b
	}
	if a == b.Not() {
		return c
	}
	if a == c.Not() {
		return b
	}
	if b == c.Not() {
		return a
	}
	// Constants.
	if a == ConstFalse {
		return g.And(b, c)
	}
	if a == ConstTrue {
		return g.Or(b, c)
	}
	if b == ConstFalse {
		return g.And(a, c)
	}
	if b == ConstTrue {
		return g.Or(a, c)
	}
	if c == ConstFalse {
		return g.And(a, b)
	}
	if c == ConstTrue {
		return g.Or(a, b)
	}
	compl := false
	nc := 0
	if a.IsCompl() {
		nc++
	}
	if b.IsCompl() {
		nc++
	}
	if c.IsCompl() {
		nc++
	}
	if nc >= 2 {
		a, b, c = a.Not(), b.Not(), c.Not()
		compl = true
	}
	s := []Lit{a, b, c}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	a, b, c = s[0], s[1], s[2]
	if l, ok := g.lookup(OpMaj, a, b, c); ok {
		return l.NotIf(compl)
	}
	return g.newNode(OpMaj, a, b, c).NotIf(compl)
}

// MajAnd returns the majority of a, b, c built from AND nodes only.
func (g *AIG) MajAnd(a, b, c Lit) Lit {
	return g.Or(g.And(a, b), g.Or(g.And(a, c), g.And(b, c)))
}

// Mux returns a literal computing "if s then t else e" from AND nodes.
func (g *AIG) Mux(s, t, e Lit) Lit {
	return g.And(g.And(s, t).Not(), g.And(s.Not(), e).Not()).Not()
}

// Levels returns the logic level of every variable (inputs and the constant
// are level 0) and the maximum level over the primary outputs.
func (g *AIG) Levels() ([]int, int) {
	lv := make([]int, len(g.nodes))
	for v := uint32(1); v <= g.MaxVar(); v++ {
		n := &g.nodes[v]
		if n.op == OpInput {
			continue
		}
		m := 0
		for _, f := range g.Fanins(v) {
			if l := lv[f.Var()]; l > m {
				m = l
			}
		}
		lv[v] = m + 1
	}
	depth := 0
	for _, po := range g.pos {
		if l := lv[po.Var()]; l > depth {
			depth = l
		}
	}
	return lv, depth
}

// Depth returns the maximum logic level over the primary outputs.
func (g *AIG) Depth() int {
	_, d := g.Levels()
	return d
}

// TFI returns the set of variables in the transitive fanin cone of roots
// (including the root variables themselves, excluding the constant).
func (g *AIG) TFI(roots ...Lit) map[uint32]bool {
	seen := make(map[uint32]bool)
	var stack []uint32
	for _, r := range roots {
		if v := r.Var(); v != 0 && !seen[v] {
			seen[v] = true
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range g.Fanins(v) {
			if w := f.Var(); w != 0 && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// Support returns the primary-input positions feeding the cone of roots,
// in increasing PI order.
func (g *AIG) Support(roots ...Lit) []int {
	tfi := g.TFI(roots...)
	var sup []int
	for i, v := range g.pis {
		if tfi[v] {
			sup = append(sup, i)
		}
	}
	return sup
}

// TFO returns the set of variables in the transitive fanout cone of the
// given variables (including themselves).
func (g *AIG) TFO(vars ...uint32) map[uint32]bool {
	in := make(map[uint32]bool, len(vars))
	for _, v := range vars {
		in[v] = true
	}
	for v := uint32(1); v <= g.MaxVar(); v++ {
		if in[v] {
			continue
		}
		for _, f := range g.Fanins(v) {
			if in[f.Var()] {
				in[v] = true
				break
			}
		}
	}
	return in
}

// Copy returns a deep copy of the graph.
func (g *AIG) Copy() *AIG {
	ng := &AIG{
		Name:    g.Name,
		nodes:   append([]node(nil), g.nodes...),
		pis:     append([]uint32(nil), g.pis...),
		pos:     append([]Lit(nil), g.pos...),
		piNames: append([]string(nil), g.piNames...),
		poNames: append([]string(nil), g.poNames...),
		strash:  make(map[strashKey]uint32, len(g.strash)),
		piIndex: make(map[uint32]int, len(g.piIndex)),
	}
	for k, v := range g.strash {
		ng.strash[k] = v
	}
	for k, v := range g.piIndex {
		ng.piIndex[k] = v
	}
	return ng
}

// Import copies the logic of src into g, mapping the i-th primary input of
// src to piMap[i]. It returns the literals in g corresponding to the primary
// outputs of src. Logic is re-hashed, so shared structure is reused.
func (g *AIG) Import(src *AIG, piMap []Lit) []Lit {
	if len(piMap) != src.NumInputs() {
		panic("aig: Import piMap length mismatch")
	}
	return g.ImportCone(src, piMap, src.Outputs())
}

// ImportCone copies only the logic feeding roots (literals of src) into g
// and returns the mapped root literals.
func (g *AIG) ImportCone(src *AIG, piMap []Lit, roots []Lit) []Lit {
	m := make([]Lit, len(src.nodes))
	mapped := make([]bool, len(src.nodes))
	m[0] = ConstFalse
	mapped[0] = true
	for i, v := range src.pis {
		if piMap[i].Var() > g.MaxVar() {
			panic("aig: Import piMap literal out of range")
		}
		m[v] = piMap[i]
		mapped[v] = true
	}
	tfi := src.TFI(roots...)
	for v := uint32(1); v <= src.MaxVar(); v++ {
		if !tfi[v] || mapped[v] {
			continue
		}
		n := &src.nodes[v]
		if n.op == OpInput {
			panic("aig: ImportCone reached an unmapped input")
		}
		f := func(i int) Lit { return m[n.fan[i].Var()].NotIf(n.fan[i].IsCompl()) }
		switch n.op {
		case OpAnd:
			m[v] = g.And(f(0), f(1))
		case OpXor:
			m[v] = g.Xor(f(0), f(1))
		case OpMaj:
			m[v] = g.Maj(f(0), f(1), f(2))
		}
		mapped[v] = true
	}
	out := make([]Lit, len(roots))
	for i, r := range roots {
		out[i] = m[r.Var()].NotIf(r.IsCompl())
	}
	return out
}

// ExtractCone builds a standalone graph computing the given root literals,
// with primary inputs restricted to the support of the cone. It returns the
// new graph and the PI positions (in g) that became its inputs, in order.
func (g *AIG) ExtractCone(roots ...Lit) (*AIG, []int) {
	sup := g.Support(roots...)
	ng := New()
	piMapFull := make([]Lit, g.NumInputs())
	for i := range piMapFull {
		piMapFull[i] = ConstFalse // unused inputs; never referenced in cone
	}
	for _, pi := range sup {
		piMapFull[pi] = ng.AddInput(g.piNames[pi])
	}
	outs := importConePartial(ng, g, piMapFull, roots)
	for i, o := range outs {
		ng.AddOutput(o, fmt.Sprintf("cone%d", i))
	}
	return ng, sup
}

// importConePartial is like ImportCone but tolerates unmapped inputs outside
// the cone (they must not be referenced).
func importConePartial(dst, src *AIG, piMap []Lit, roots []Lit) []Lit {
	return dst.ImportCone(src, piMap, roots)
}

// ExtractBounded builds a standalone graph computing the given roots with
// the traversal cut off at the boundary variables: boundary variables (and
// any primary inputs reached outside the boundary) become the inputs of
// the new graph. It returns the new graph and the ordered list of source
// variables that became its inputs.
func (g *AIG) ExtractBounded(roots []Lit, boundary []uint32) (*AIG, []uint32) {
	isBound := make(map[uint32]bool, len(boundary))
	for _, v := range boundary {
		isBound[v] = true
	}
	// Collect the bounded cone and its leaves.
	seen := map[uint32]bool{}
	var leaves []uint32
	var order []uint32 // internal vars in discovery order
	var stack []uint32
	push := func(v uint32) {
		if v == 0 || seen[v] {
			return
		}
		seen[v] = true
		if isBound[v] || g.Op(v) == OpInput {
			leaves = append(leaves, v)
			return
		}
		order = append(order, v)
		stack = append(stack, v)
	}
	for _, r := range roots {
		push(r.Var())
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range g.Fanins(v) {
			push(f.Var())
		}
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	ng := New()
	m := make(map[uint32]Lit, len(leaves)+len(order)+1)
	m[0] = ConstFalse
	for _, v := range leaves {
		name := fmt.Sprintf("cut_n%d", v)
		if idx, ok := g.piIndex[v]; ok {
			name = g.piNames[idx]
		}
		m[v] = ng.AddInput(name)
	}
	mapped := func(l Lit) Lit { return m[l.Var()].NotIf(l.IsCompl()) }
	for _, v := range order { // ascending var order is topological
		fan := g.Fanins(v)
		switch g.Op(v) {
		case OpAnd:
			m[v] = ng.And(mapped(fan[0]), mapped(fan[1]))
		case OpXor:
			m[v] = ng.Xor(mapped(fan[0]), mapped(fan[1]))
		case OpMaj:
			m[v] = ng.Maj(mapped(fan[0]), mapped(fan[1]), mapped(fan[2]))
		}
	}
	for i, r := range roots {
		if r.IsConst() {
			ng.AddOutput(r, fmt.Sprintf("bounded%d", i))
			continue
		}
		ng.AddOutput(mapped(r), fmt.Sprintf("bounded%d", i))
	}
	return ng, leaves
}

// Cleanup rebuilds the graph keeping only logic reachable from the primary
// outputs. Input order, names and output order are preserved. It returns the
// rebuilt graph and does not modify g.
func (g *AIG) Cleanup() *AIG {
	ng := New()
	ng.Name = g.Name
	piMap := make([]Lit, g.NumInputs())
	for i := range piMap {
		piMap[i] = ng.AddInput(g.piNames[i])
	}
	outs := ng.ImportCone(g, piMap, g.pos)
	for i, o := range outs {
		ng.AddOutput(o, g.poNames[i])
	}
	return ng
}

// LowerToAnd returns an equivalent graph in which every XOR and MAJ node has
// been expanded into AND nodes. Inputs/outputs and names are preserved.
func (g *AIG) LowerToAnd() *AIG {
	ng := New()
	ng.Name = g.Name
	m := make([]Lit, len(g.nodes))
	m[0] = ConstFalse
	for i, v := range g.pis {
		m[v] = ng.AddInput(g.piNames[i])
	}
	for v := uint32(1); v <= g.MaxVar(); v++ {
		n := &g.nodes[v]
		if n.op == OpInput {
			continue
		}
		f := func(i int) Lit { return m[n.fan[i].Var()].NotIf(n.fan[i].IsCompl()) }
		switch n.op {
		case OpAnd:
			m[v] = ng.And(f(0), f(1))
		case OpXor:
			m[v] = ng.XorAnd(f(0), f(1))
		case OpMaj:
			m[v] = ng.MajAnd(f(0), f(1), f(2))
		}
	}
	for i, po := range g.pos {
		ng.AddOutput(m[po.Var()].NotIf(po.IsCompl()), g.poNames[i])
	}
	return ng
}

// EvalLits evaluates the graph on a single input pattern and returns the
// values of the given literals (which need not be outputs). Only the
// variables up to the highest requested one are evaluated: a variable's
// fanins always have smaller indices.
func (g *AIG) EvalLits(pattern []bool, lits ...Lit) []bool {
	if len(pattern) != g.NumInputs() {
		panic("aig: EvalLits pattern length mismatch")
	}
	top := uint32(0)
	for _, l := range lits {
		top = max(top, l.Var())
	}
	val := make([]bool, top+1)
	for i, v := range g.pis {
		if v <= top {
			val[v] = pattern[i]
		}
	}
	lv := func(l Lit) bool { return val[l.Var()] != l.IsCompl() }
	for v := uint32(1); v <= top; v++ {
		n := &g.nodes[v]
		switch n.op {
		case OpAnd:
			val[v] = lv(n.fan[0]) && lv(n.fan[1])
		case OpXor:
			val[v] = lv(n.fan[0]) != lv(n.fan[1])
		case OpMaj:
			a, b, c := lv(n.fan[0]), lv(n.fan[1]), lv(n.fan[2])
			val[v] = (a && b) || (a && c) || (b && c)
		}
	}
	out := make([]bool, len(lits))
	for i, l := range lits {
		out[i] = lv(l)
	}
	return out
}

// Eval evaluates the graph on a single input pattern and returns the output
// values. Convenient for tests; use package sim for bulk simulation.
func (g *AIG) Eval(pattern []bool) []bool {
	if len(pattern) != g.NumInputs() {
		panic("aig: Eval pattern length mismatch")
	}
	val := make([]bool, len(g.nodes))
	for i, v := range g.pis {
		val[v] = pattern[i]
	}
	lv := func(l Lit) bool { return val[l.Var()] != l.IsCompl() }
	for v := uint32(1); v <= g.MaxVar(); v++ {
		n := &g.nodes[v]
		switch n.op {
		case OpAnd:
			val[v] = lv(n.fan[0]) && lv(n.fan[1])
		case OpXor:
			val[v] = lv(n.fan[0]) != lv(n.fan[1])
		case OpMaj:
			a, b, c := lv(n.fan[0]), lv(n.fan[1]), lv(n.fan[2])
			val[v] = (a && b) || (a && c) || (b && c)
		}
	}
	out := make([]bool, len(g.pos))
	for i, po := range g.pos {
		out[i] = lv(po)
	}
	return out
}

// Stats summarizes a graph for reporting.
type Stats struct {
	Inputs  int
	Outputs int
	Ands    int
	Xors    int
	Majs    int
	Depth   int
}

// Nodes returns the total number of logic nodes in the stats.
func (s Stats) Nodes() int { return s.Ands + s.Xors + s.Majs }

func (s Stats) String() string {
	return fmt.Sprintf("i/o=%d/%d and=%d xor=%d maj=%d lev=%d",
		s.Inputs, s.Outputs, s.Ands, s.Xors, s.Majs, s.Depth)
}

// Stats computes summary statistics of the graph.
func (g *AIG) Stats() Stats {
	st := Stats{Inputs: g.NumInputs(), Outputs: g.NumOutputs()}
	for v := uint32(1); v <= g.MaxVar(); v++ {
		switch g.nodes[v].op {
		case OpAnd:
			st.Ands++
		case OpXor:
			st.Xors++
		case OpMaj:
			st.Majs++
		}
	}
	st.Depth = g.Depth()
	return st
}
