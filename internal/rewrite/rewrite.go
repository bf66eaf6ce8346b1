package rewrite

import (
	"math/rand"

	"obfuslock/internal/aig"
)

// Cut enumeration limits of FunctionalRewrite: the widest cut considered
// and the cuts kept per node.
const (
	cutSize     = 4
	cutsPerNode = 8
)

// FunctionalRewrite rebuilds the graph, replacing local cones by ISOP-based
// resyntheses of their cut functions whenever that does not increase size
// (standard DAG-aware AIG rewriting, simplified). Among equal-cost
// structures it picks at random from seed — the diversification ObfusLock
// uses to erase structural traces after locking. The result is cleaned up
// and functionally equivalent to the input.
func FunctionalRewrite(g *aig.AIG, seed int64) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	cuts := EnumerateCuts(g, cutSize, cutsPerNode)

	ng := aig.New()
	ng.Name = g.Name
	m := make([]aig.Lit, g.MaxVar()+1)
	m[0] = aig.ConstFalse
	for i := 0; i < g.NumInputs(); i++ {
		m[g.InputVar(i)] = ng.AddInput(g.InputName(i))
	}
	mapped := func(l aig.Lit) aig.Lit { return m[l.Var()].NotIf(l.IsCompl()) }

	for v := uint32(1); v <= g.MaxVar(); v++ {
		if g.Op(v) == aig.OpInput {
			continue
		}
		fan := g.Fanins(v)
		// Candidate A: direct reconstruction.
		before := ng.MaxVar()
		var direct aig.Lit
		switch g.Op(v) {
		case aig.OpAnd:
			direct = ng.And(mapped(fan[0]), mapped(fan[1]))
		case aig.OpXor:
			direct = ng.Xor(mapped(fan[0]), mapped(fan[1]))
		case aig.OpMaj:
			direct = ng.Maj(mapped(fan[0]), mapped(fan[1]), mapped(fan[2]))
		}
		directCost := int(ng.MaxVar() - before)

		// Candidate B: best non-trivial cut resynthesis.
		best := direct
		bestCost := directCost
		for _, cut := range cuts[v] {
			if len(cut.Leaves) < 2 || (len(cut.Leaves) == 1 && cut.Leaves[0] == v) {
				continue
			}
			tt, ok := CutTruth(g, v, cut.Leaves)
			if !ok {
				continue
			}
			leafLits := make([]aig.Lit, len(cut.Leaves))
			allMapped := true
			for i, lf := range cut.Leaves {
				if m[lf] == 0 && lf != 0 && g.Op(lf) != aig.OpConst {
					// Leaf not mapped (possible when a leaf is the constant
					// or an unprocessed node — should not happen in topo
					// order, but guard anyway).
					if g.Op(lf) != aig.OpInput {
						allMapped = false
						break
					}
				}
				leafLits[i] = m[lf]
			}
			if !allMapped {
				continue
			}
			b := ng.MaxVar()
			cand := BuildFromTruth(ng, tt, leafLits)
			cost := int(ng.MaxVar() - b)
			if cost < bestCost || (cost == bestCost && rng.Intn(2) == 0) {
				best, bestCost = cand, cost
			}
		}
		m[v] = best
	}
	for i := 0; i < g.NumOutputs(); i++ {
		ng.AddOutput(mapped(g.Output(i)), g.OutputName(i))
	}
	return ng.Cleanup()
}

// Balance rebuilds the graph with AND and XOR trees rebalanced to minimize
// depth: flattened operand lists are combined smallest-level-first
// (Huffman style). Used after locking to keep the delay overhead
// negligible.
func Balance(g *aig.AIG) *aig.AIG {
	ng := aig.New()
	ng.Name = g.Name
	m := make([]aig.Lit, g.MaxVar()+1)
	m[0] = aig.ConstFalse
	for i := 0; i < g.NumInputs(); i++ {
		m[g.InputVar(i)] = ng.AddInput(g.InputName(i))
	}
	mapped := func(l aig.Lit) aig.Lit { return m[l.Var()].NotIf(l.IsCompl()) }

	const maxFlat = 32
	var collectAnd func(l aig.Lit, out []aig.Lit) []aig.Lit
	collectAnd = func(l aig.Lit, out []aig.Lit) []aig.Lit {
		if !l.IsCompl() && g.Op(l.Var()) == aig.OpAnd && len(out) < maxFlat {
			fan := g.Fanins(l.Var())
			out = collectAnd(fan[0], out)
			out = collectAnd(fan[1], out)
			return out
		}
		return append(out, l)
	}
	var collectXor func(l aig.Lit, out []aig.Lit, compl *bool) []aig.Lit
	collectXor = func(l aig.Lit, out []aig.Lit, compl *bool) []aig.Lit {
		if l.IsCompl() {
			*compl = !*compl
			l = l.Regular()
		}
		if g.Op(l.Var()) == aig.OpXor && len(out) < maxFlat {
			fan := g.Fanins(l.Var())
			out = collectXor(fan[0], out, compl)
			out = collectXor(fan[1], out, compl)
			return out
		}
		return append(out, l)
	}
	// Incrementally maintained levels of ng (vars are created in topo
	// order, so new vars derive from already-leveled fanins).
	lv := []int{0}
	level := func(l aig.Lit) int {
		for uint32(len(lv)) <= ng.MaxVar() {
			v := uint32(len(lv))
			if ng.Op(v) == aig.OpInput {
				lv = append(lv, 0)
				continue
			}
			worst := 0
			for _, f := range ng.Fanins(v) {
				if x := lv[f.Var()]; x > worst {
					worst = x
				}
			}
			lv = append(lv, worst+1)
		}
		return lv[l.Var()]
	}
	// combine merges mapped literals smallest-level-first with op.
	combine := func(lits []aig.Lit, op func(a, b aig.Lit) aig.Lit) aig.Lit {
		for len(lits) > 1 {
			// Find the two smallest-level operands.
			i0, i1 := 0, 1
			if level(lits[i1]) < level(lits[i0]) {
				i0, i1 = i1, i0
			}
			for i := 2; i < len(lits); i++ {
				if level(lits[i]) < level(lits[i0]) {
					i1 = i0
					i0 = i
				} else if level(lits[i]) < level(lits[i1]) {
					i1 = i
				}
			}
			merged := op(lits[i0], lits[i1])
			if i0 > i1 {
				i0, i1 = i1, i0
			}
			lits[i1] = lits[len(lits)-1]
			lits = lits[:len(lits)-1]
			lits[i0] = merged
		}
		return lits[0]
	}

	for v := uint32(1); v <= g.MaxVar(); v++ {
		if g.Op(v) == aig.OpInput {
			continue
		}
		fan := g.Fanins(v)
		switch g.Op(v) {
		case aig.OpAnd:
			leaves := collectAnd(aig.MkLit(v, false), nil)
			lits := make([]aig.Lit, len(leaves))
			for i, l := range leaves {
				lits[i] = mapped(l)
			}
			m[v] = combine(lits, ng.And)
		case aig.OpXor:
			compl := false
			leaves := collectXor(aig.MkLit(v, false), nil, &compl)
			lits := make([]aig.Lit, len(leaves))
			for i, l := range leaves {
				lits[i] = mapped(l)
			}
			m[v] = combine(lits, ng.Xor).NotIf(compl)
		case aig.OpMaj:
			m[v] = ng.Maj(mapped(fan[0]), mapped(fan[1]), mapped(fan[2]))
		}
	}
	for i := 0; i < g.NumOutputs(); i++ {
		ng.AddOutput(mapped(g.Output(i)), g.OutputName(i))
	}
	return ng.Cleanup()
}

// InsertBubbles returns a circuit computing g(x XOR b) for a random bubble
// vector b, together with b. With key-XOR locking, b becomes the correct
// key ("bubbles randomize the key polarities").
func InsertBubbles(g *aig.AIG, seed int64) (*aig.AIG, []bool) {
	rng := rand.New(rand.NewSource(seed))
	b := make([]bool, g.NumInputs())
	for i := range b {
		b[i] = rng.Intn(2) == 1
	}
	return ApplyBubbles(g, b), b
}

// ApplyBubbles returns a circuit computing g(x XOR b).
func ApplyBubbles(g *aig.AIG, b []bool) *aig.AIG {
	if len(b) != g.NumInputs() {
		panic("rewrite: bubble vector length mismatch")
	}
	ng := aig.New()
	ng.Name = g.Name
	piMap := make([]aig.Lit, g.NumInputs())
	for i := range piMap {
		piMap[i] = ng.AddInput(g.InputName(i)).NotIf(b[i])
	}
	outs := ng.Import(g, piMap)
	for i, o := range outs {
		ng.AddOutput(o, g.OutputName(i))
	}
	return ng
}

// HideInverters rewrites AND nodes with complemented primary-input fanins
// into equivalent forms without PI inverter edges — And(!a, b) becomes
// And(b, !And(a, b)) — so bubble polarities are not readable off the input
// edges. XOR nodes already keep their fanins regular by canonicalization;
// MAJ nodes with complemented PI fanins are lowered to ANDs first.
func HideInverters(g *aig.AIG) *aig.AIG {
	ng := aig.New()
	ng.Name = g.Name
	m := make([]aig.Lit, g.MaxVar()+1)
	m[0] = aig.ConstFalse
	isPI := make([]bool, g.MaxVar()+1)
	for i := 0; i < g.NumInputs(); i++ {
		v := g.InputVar(i)
		m[v] = ng.AddInput(g.InputName(i))
		isPI[v] = true
	}
	mapped := func(l aig.Lit) aig.Lit { return m[l.Var()].NotIf(l.IsCompl()) }
	// hiddenAnd builds And(x, y) replacing complemented-PI operands.
	hiddenAnd := func(x, y aig.Lit, xPI, yPI bool) aig.Lit {
		xc := xPI && x.IsCompl()
		yc := yPI && y.IsCompl()
		switch {
		case xc && yc:
			// And(!a, !b) = !(a|b) decomposed over the disjoint cover
			// {a&b, a&!b, !a&b}, complementing only internal edges.
			a, b := x.Not(), y.Not()
			n1 := ng.And(a, b)
			n2 := ng.And(a, n1.Not())
			n3 := ng.And(b, n1.Not())
			return ng.AndN(n1.Not(), n2.Not(), n3.Not())
		case xc:
			// And(!a, y) = And(y, !And(a, y)).
			return ng.And(y, ng.And(x.Not(), y).Not())
		case yc:
			return ng.And(x, ng.And(y.Not(), x).Not())
		}
		return ng.And(x, y)
	}
	for v := uint32(1); v <= g.MaxVar(); v++ {
		if g.Op(v) == aig.OpInput {
			continue
		}
		fan := g.Fanins(v)
		a := mapped(fan[0])
		b := mapped(fan[1])
		aPI := isPI[fan[0].Var()]
		bPI := isPI[fan[1].Var()]
		switch g.Op(v) {
		case aig.OpAnd:
			m[v] = hiddenAnd(a, b, aPI, bPI)
		case aig.OpXor:
			m[v] = ng.Xor(a, b)
		case aig.OpMaj:
			c := mapped(fan[2])
			cPI := isPI[fan[2].Var()]
			if (aPI && a.IsCompl()) || (bPI && b.IsCompl()) || (cPI && c.IsCompl()) {
				ab := hiddenAnd(a, b, aPI, bPI)
				ac := hiddenAnd(a, c, aPI, cPI)
				bc := hiddenAnd(b, c, bPI, cPI)
				m[v] = ng.Or(ab, ng.Or(ac, bc))
			} else {
				m[v] = ng.Maj(a, b, c)
			}
		}
	}
	// Complemented inputs feeding outputs directly stay as-is: output
	// polarity is not key material, so nothing leaks there.
	for i := 0; i < g.NumOutputs(); i++ {
		ng.AddOutput(mapped(g.Output(i)), g.OutputName(i))
	}
	return ng
}

// CountPIInverterEdges counts fanin edges that are complemented references
// to primary inputs — the structural trace HideInverters removes.
func CountPIInverterEdges(g *aig.AIG) int {
	isPI := make([]bool, g.MaxVar()+1)
	for i := 0; i < g.NumInputs(); i++ {
		isPI[g.InputVar(i)] = true
	}
	n := 0
	for v := uint32(1); v <= g.MaxVar(); v++ {
		for _, f := range g.Fanins(v) {
			if f.IsCompl() && isPI[f.Var()] {
				n++
			}
		}
	}
	return n
}
