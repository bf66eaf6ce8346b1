// Package cnf encodes AIGs into CNF via the Tseitin transformation and
// provides the miter constructions used by equivalence checking and the
// oracle-guided attacks.
package cnf

import (
	"obfuslock/internal/aig"
	"obfuslock/internal/sat"
)

// Encoder maps the nodes of one AIG instance into solver variables.
// Several encoders may share one solver (e.g. two copies of a locked
// circuit inside a SAT-attack miter): inputs can be tied to existing
// solver literals before Encode is called. The graph may keep growing
// after the encoder is created — the SAT-sweeping engine interleaves node
// construction with incremental cone encoding — and Encode only ever adds
// clauses for cones not yet encoded.
//
// The encoder marks the interface of every encoded cone as frozen for
// the solver's simplifier: primary inputs (fresh or tied) and the root
// literals returned by Encode. Callers that read or constrain other
// internal literals after a Simplify call must freeze those themselves
// (or restrict simplification to equivalence-preserving techniques).
// A caller that keeps encoding new cones after variable elimination
// calls DropEliminated first, so that no new clause reuses an
// eliminated variable.
type Encoder struct {
	G      *aig.AIG
	S      *sat.Solver
	varOf  []sat.Lit // per AIG variable: solver literal of positive phase
	mapped []bool
	// dropped marks nodes whose variable DropEliminated forgot; reencoded
	// counts those that Encode has since given a fresh variable.
	dropped   []bool
	reencoded int64
	stack     []uint32 // Encode DFS scratch
}

// NewEncoder prepares an encoder of g into s. No clauses are added yet.
func NewEncoder(g *aig.AIG, s *sat.Solver) *Encoder {
	e := &Encoder{G: g, S: s}
	e.grow()
	return e
}

// grow extends the per-variable tables to cover nodes added to the graph
// after the encoder was created.
func (e *Encoder) grow() {
	if n, old := int(e.G.MaxVar())+1, len(e.varOf); n > old {
		e.varOf = append(e.varOf, make([]sat.Lit, n-old)...)
		e.mapped = append(e.mapped, make([]bool, n-old)...)
		e.dropped = append(e.dropped, make([]bool, n-old)...)
	}
}

// DropEliminated forgets every encoded node whose solver variable a
// Simplify call has eliminated, so that a later Encode reaching the node
// gives it a fresh variable and fresh Tseitin clauses. Nodes whose
// variable survived keep it.
//
// Keeping a surviving variable is sound when every encoded node is a
// function of frozen variables (tied or fresh inputs): variable
// elimination leaves the formula's existential projection onto the
// surviving variables, so every model of the simplified formula still
// gives a surviving node variable the value of its node's function.
func (e *Encoder) DropEliminated() {
	for v, m := range e.mapped {
		if m && e.S.Eliminated(e.varOf[v].Var()) {
			e.mapped[v] = false
			e.dropped[v] = true
		}
	}
}

// Reencoded returns how many dropped nodes (DropEliminated) Encode has
// given a fresh variable since the encoder was created.
func (e *Encoder) Reencoded() int64 { return e.reencoded }

// constVar lazily creates a solver variable pinned to false to stand for
// the AIG constant node.
func (e *Encoder) constLit() sat.Lit {
	if !e.mapped[0] {
		v := e.S.NewVar()
		l := sat.MkLit(v, false)
		e.S.AddClause(l.Not()) // pin to false
		e.varOf[0] = l
		e.mapped[0] = true
	}
	return e.varOf[0]
}

// TieInput binds the i-th primary input of the AIG to an existing solver
// literal. Must be called before Encode. The literal's variable becomes
// part of the encoding interface and is frozen against elimination.
func (e *Encoder) TieInput(i int, l sat.Lit) {
	e.grow()
	v := e.G.InputVar(i)
	e.varOf[v] = l
	e.mapped[v] = true
	e.S.FreezeLit(l)
}

// InputLit returns the solver literal of the i-th primary input, creating a
// fresh (frozen) variable if the input was not tied.
func (e *Encoder) InputLit(i int) sat.Lit {
	e.grow()
	v := e.G.InputVar(i)
	if !e.mapped[v] {
		e.varOf[v] = sat.MkLit(e.S.NewVar(), false)
		e.mapped[v] = true
		e.S.FreezeLit(e.varOf[v])
	}
	return e.varOf[v]
}

// Lit returns the solver literal for an AIG literal. The cone feeding it
// must already have been encoded.
func (e *Encoder) Lit(l aig.Lit) sat.Lit {
	if l.IsConst() {
		c := e.constLit()
		if l == aig.ConstTrue {
			return c.Not()
		}
		return c
	}
	if !e.mapped[l.Var()] {
		panic("cnf: literal not yet encoded")
	}
	sl := e.varOf[l.Var()]
	if l.IsCompl() {
		return sl.Not()
	}
	return sl
}

// Encode adds Tseitin clauses for the cones of the given roots (or the
// whole graph when roots is empty). Untied inputs get fresh variables.
// Returns the solver literals of the roots; root and input variables
// are frozen against simplifier elimination (they are the interface the
// caller reads and constrains).
//
// The traversal is an iterative post-order DFS from the roots, so the
// cost is proportional to the unencoded cone, not to the whole graph —
// the SAT-attack inner loop encodes two small key-binding cones per DIP
// against circuits three orders of magnitude larger.
func (e *Encoder) Encode(roots ...aig.Lit) []sat.Lit {
	g := e.G
	e.grow()
	if len(roots) == 0 {
		roots = g.Outputs()
	}
	stack := e.stack[:0]
	for _, r := range roots {
		if !r.IsConst() && !e.mapped[r.Var()] {
			stack = append(stack, r.Var())
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if e.mapped[v] {
			stack = stack[:len(stack)-1]
			continue
		}
		if g.Op(v) == aig.OpInput {
			l := sat.MkLit(e.S.NewVar(), false)
			e.varOf[v] = l
			e.mapped[v] = true
			e.S.FreezeLit(l)
			stack = stack[:len(stack)-1]
			continue
		}
		fan := g.Fanins(v)
		ready := true
		// Push in reverse so fan[0]'s cone encodes first (keeps the
		// variable order aligned with fanin order for determinism).
		for i := len(fan) - 1; i >= 0; i-- {
			if f := fan[i]; !f.IsConst() && !e.mapped[f.Var()] {
				stack = append(stack, f.Var())
				ready = false
			}
		}
		if !ready {
			continue
		}
		out := sat.MkLit(e.S.NewVar(), false)
		a := e.Lit(fan[0])
		b := e.Lit(fan[1])
		switch g.Op(v) {
		case aig.OpAnd:
			// out <-> a & b
			e.S.AddClause(out.Not(), a)
			e.S.AddClause(out.Not(), b)
			e.S.AddClause(out, a.Not(), b.Not())
		case aig.OpXor:
			// out <-> a ^ b
			e.S.AddClause(out.Not(), a, b)
			e.S.AddClause(out.Not(), a.Not(), b.Not())
			e.S.AddClause(out, a.Not(), b)
			e.S.AddClause(out, a, b.Not())
		case aig.OpMaj:
			c := e.Lit(fan[2])
			// out <-> maj(a,b,c): clauses from the two-level forms.
			e.S.AddClause(out.Not(), a, b)
			e.S.AddClause(out.Not(), a, c)
			e.S.AddClause(out.Not(), b, c)
			e.S.AddClause(out, a.Not(), b.Not())
			e.S.AddClause(out, a.Not(), c.Not())
			e.S.AddClause(out, b.Not(), c.Not())
		}
		e.varOf[v] = out
		e.mapped[v] = true
		if e.dropped[v] {
			e.dropped[v] = false
			e.reencoded++
		}
		stack = stack[:len(stack)-1]
	}
	e.stack = stack[:0]
	lits := make([]sat.Lit, len(roots))
	for i, r := range roots {
		lits[i] = e.Lit(r)
		e.S.FreezeLit(lits[i])
	}
	return lits
}

// XorLit adds clauses defining a fresh literal out <-> a ^ b and returns it.
func XorLit(s *sat.Solver, a, b sat.Lit) sat.Lit {
	out := sat.MkLit(s.NewVar(), false)
	s.AddClause(out.Not(), a, b)
	s.AddClause(out.Not(), a.Not(), b.Not())
	s.AddClause(out, a.Not(), b)
	s.AddClause(out, a, b.Not())
	return out
}

// OrLit adds clauses defining a fresh literal out <-> (l1 | l2 | ...).
func OrLit(s *sat.Solver, lits ...sat.Lit) sat.Lit {
	out := sat.MkLit(s.NewVar(), false)
	big := make([]sat.Lit, 0, len(lits)+1)
	big = append(big, out.Not())
	for _, l := range lits {
		s.AddClause(out, l.Not())
		big = append(big, l)
	}
	s.AddClause(big...)
	return out
}

// AddXorConstraint adds the parity constraint lits[0] ^ ... ^ lits[n-1] = rhs
// by chaining fresh variables (3-literal XOR steps). Used by the XOR-hashing
// model counter.
func AddXorConstraint(s *sat.Solver, lits []sat.Lit, rhs bool) {
	if len(lits) == 0 {
		if rhs {
			// 0 = 1: unsatisfiable.
			v := s.NewVar()
			s.AddClause(sat.MkLit(v, false))
			s.AddClause(sat.MkLit(v, true))
		}
		return
	}
	acc := lits[0]
	for _, l := range lits[1:] {
		acc = XorLit(s, acc, l)
	}
	if rhs {
		s.AddClause(acc)
	} else {
		s.AddClause(acc.Not())
	}
}

// Miter encodes "outputs of ga differ from outputs of gb" over shared
// inputs into s. Both graphs must have identical PI/PO counts. It returns
// the shared input literals and the literal asserting inequality (already
// constrained true is NOT done; caller decides).
func Miter(s *sat.Solver, ga, gb *aig.AIG) (inputs []sat.Lit, diff sat.Lit) {
	if ga.NumInputs() != gb.NumInputs() || ga.NumOutputs() != gb.NumOutputs() {
		panic("cnf: miter interface mismatch")
	}
	ea := NewEncoder(ga, s)
	eb := NewEncoder(gb, s)
	inputs = make([]sat.Lit, ga.NumInputs())
	for i := range inputs {
		inputs[i] = ea.InputLit(i)
		eb.TieInput(i, inputs[i])
	}
	oa := ea.Encode()
	ob := eb.Encode()
	diffs := make([]sat.Lit, len(oa))
	for i := range oa {
		diffs[i] = XorLit(s, oa[i], ob[i])
	}
	diff = OrLit(s, diffs...)
	return inputs, diff
}
