package rewrite

import (
	"sort"

	"obfuslock/internal/aig"
)

// Cut is a set of leaf variables that cuts the cone of a node; every path
// from the node to the inputs passes through a leaf.
type Cut struct {
	Leaves []uint32 // sorted ascending
}

func (c Cut) size() int { return len(c.Leaves) }

// mergeLeaves unions two sorted leaf sets, failing (nil) beyond k leaves.
func mergeLeaves(a, b []uint32, k int) []uint32 {
	out := make([]uint32, 0, k)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var next uint32
		switch {
		case i >= len(a):
			next = b[j]
			j++
		case j >= len(b):
			next = a[i]
			i++
		case a[i] < b[j]:
			next = a[i]
			i++
		case a[i] > b[j]:
			next = b[j]
			j++
		default:
			next = a[i]
			i++
			j++
		}
		if len(out) == k {
			return nil
		}
		out = append(out, next)
	}
	return out
}

func dominates(a, b []uint32) bool {
	// a dominates b if a ⊆ b.
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// EnumerateCuts computes up to perNode k-feasible cuts for every variable,
// preferring small cuts. The trivial cut {v} is always present.
func EnumerateCuts(g *aig.AIG, k, perNode int) [][]Cut {
	cuts := make([][]Cut, g.MaxVar()+1)
	cuts[0] = []Cut{{Leaves: []uint32{0}}}
	add := func(set []Cut, leaves []uint32) []Cut {
		if leaves == nil {
			return set
		}
		for _, c := range set {
			if dominates(c.Leaves, leaves) {
				return set
			}
		}
		// Remove cuts dominated by the new one.
		out := set[:0]
		for _, c := range set {
			if !dominates(leaves, c.Leaves) {
				out = append(out, c)
			}
		}
		return append(out, Cut{Leaves: leaves})
	}
	for v := uint32(1); v <= g.MaxVar(); v++ {
		if g.Op(v) == aig.OpInput {
			cuts[v] = []Cut{{Leaves: []uint32{v}}}
			continue
		}
		fan := g.Fanins(v)
		var set []Cut
		switch len(fan) {
		case 2:
			for _, ca := range cuts[fan[0].Var()] {
				for _, cb := range cuts[fan[1].Var()] {
					set = add(set, mergeLeaves(ca.Leaves, cb.Leaves, k))
				}
			}
		case 3:
			for _, ca := range cuts[fan[0].Var()] {
				for _, cb := range cuts[fan[1].Var()] {
					ab := mergeLeaves(ca.Leaves, cb.Leaves, k)
					if ab == nil {
						continue
					}
					for _, cc := range cuts[fan[2].Var()] {
						set = add(set, mergeLeaves(ab, cc.Leaves, k))
					}
				}
			}
		}
		sort.Slice(set, func(i, j int) bool { return set[i].size() < set[j].size() })
		if len(set) > perNode-1 {
			set = set[:perNode-1]
		}
		set = append(set, Cut{Leaves: []uint32{v}}) // trivial cut last
		cuts[v] = set
	}
	return cuts
}

// CutTruth computes the truth table of node v over the cut leaves
// (up to 6 leaves). The table is replicated across all 64 bits.
func CutTruth(g *aig.AIG, v uint32, leaves []uint32) (uint64, bool) {
	if len(leaves) > 6 {
		return 0, false
	}
	memo := map[uint32]uint64{0: 0}
	for i, lf := range leaves {
		memo[lf] = VarTruth(i)
	}
	var eval func(u uint32) (uint64, bool)
	eval = func(u uint32) (uint64, bool) {
		if tt, ok := memo[u]; ok {
			return tt, true
		}
		if g.Op(u) == aig.OpInput {
			return 0, false // reached an input that is not a leaf
		}
		fan := g.Fanins(u)
		fv := func(l aig.Lit) (uint64, bool) {
			tt, ok := eval(l.Var())
			if !ok {
				return 0, false
			}
			if l.IsCompl() {
				tt = ^tt
			}
			return tt, true
		}
		a, ok := fv(fan[0])
		if !ok {
			return 0, false
		}
		b, ok := fv(fan[1])
		if !ok {
			return 0, false
		}
		var tt uint64
		switch g.Op(u) {
		case aig.OpAnd:
			tt = a & b
		case aig.OpXor:
			tt = a ^ b
		case aig.OpMaj:
			c, ok := fv(fan[2])
			if !ok {
				return 0, false
			}
			tt = a&b | a&c | b&c
		}
		memo[u] = tt
		return tt, true
	}
	return eval(v)
}

// BuildCover constructs the OR-of-cubes cover in g over the given leaf
// literals, returning the root literal.
func BuildCover(g *aig.AIG, cover []Cube, leafLits []aig.Lit) aig.Lit {
	if len(cover) == 0 {
		return aig.ConstFalse
	}
	terms := make([]aig.Lit, len(cover))
	for ci, c := range cover {
		var lits []aig.Lit
		for i := 0; i < len(leafLits); i++ {
			if c.Pos>>uint(i)&1 == 1 {
				lits = append(lits, leafLits[i])
			}
			if c.Neg>>uint(i)&1 == 1 {
				lits = append(lits, leafLits[i].Not())
			}
		}
		terms[ci] = g.AndN(lits...)
	}
	return g.OrN(terms...)
}

// BuildFromTruth synthesizes the function tt over leafLits in g by taking
// the cheaper of the ISOP covers of tt and its complement.
func BuildFromTruth(g *aig.AIG, tt uint64, leafLits []aig.Lit) aig.Lit {
	nvars := len(leafLits)
	// Both covers share one stack buffer; append moves them to the heap
	// only if they outgrow it.
	var buf [64]Cube
	cPos, _ := Isop(buf[:0], tt, tt, nvars)
	cNeg, _ := Isop(cPos[len(cPos):], ^tt, ^tt, nvars)
	if CoverCost(cNeg) < CoverCost(cPos) {
		return BuildCover(g, cNeg, leafLits).Not()
	}
	return BuildCover(g, cPos, leafLits)
}
