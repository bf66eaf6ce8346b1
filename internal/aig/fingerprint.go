package aig

import "fmt"

// Fingerprint is a 128-bit canonical structural hash of a circuit or cone.
// It is DAG-aware (each shared node is hashed once) and invariant under
// node renumbering and fanin reordering of commutative operators: two
// graphs that are isomorphic modulo variable numbering — same operators,
// same edge polarities, same primary-input positions, same output order —
// fingerprint identically. It deliberately ignores names.
//
// The fingerprint identifies the *function representation*, not solver
// behavior: two circuits with equal fingerprints compute the same function
// the same way, but search-dependent artifacts (which witness a SAT solver
// happens to find) may differ between them.
type Fingerprint [2]uint64

// String renders the fingerprint as 32 hex digits.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f[0], f[1]) }

// splitmix64 finalizer; the same mixer exec.DeriveSeed builds on.
func fpMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Domain-separation tags for the per-node hash lanes.
const (
	fpTagConst = 0x9e3779b97f4a7c15
	fpTagInput = 0xd1b54a32d192ed03
	fpTagAnd   = 0x8cb92ba72f3d8dd7
	fpTagXor   = 0xa24baed4963ee407
	fpTagMaj   = 0x9fb21c651e98df25
	fpTagPhase = 0x5851f42d4c957f2d
	fpTagRoot  = 0x2545f4914f6cdd1d
	fpLane     = 0x6a09e667f3bcc909
)

type fpHash [2]uint64

func fpLeaf(tag uint64, idx int) fpHash {
	return fpHash{
		fpMix(tag + uint64(idx)*0x9e3779b97f4a7c15),
		fpMix(tag ^ fpLane + uint64(idx)*0xc2b2ae3d27d4eb4f),
	}
}

// fpEdge combines a child hash with the edge's complement bit.
func fpEdge(h fpHash, compl bool) fpHash {
	if compl {
		return fpHash{fpMix(h[0] ^ fpTagPhase), fpMix(h[1] + fpTagPhase)}
	}
	return h
}

func fpLess(a, b fpHash) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// fpNode folds the (sorted) edge contributions of a commutative operator.
func fpNode(tag uint64, edges []fpHash) fpHash {
	// Insertion sort: at most 3 fanins.
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && fpLess(edges[j], edges[j-1]); j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	acc := fpHash{fpMix(tag), fpMix(tag ^ fpLane)}
	for _, e := range edges {
		acc[0] = fpMix(acc[0]*0x100000001b3 + e[0])
		acc[1] = fpMix(acc[1]*0xc6a4a7935bd1e995 + e[1])
	}
	return acc
}

func fpOpTag(op Op) uint64 {
	switch op {
	case OpAnd:
		return fpTagAnd
	case OpXor:
		return fpTagXor
	default:
		return fpTagMaj
	}
}

// nodeHashes computes the canonical per-node hash for every variable,
// with each PI leaf hashed by its input position.
func (g *AIG) nodeHashes() []fpHash {
	h := make([]fpHash, len(g.nodes))
	h[0] = fpHash{fpMix(fpTagConst), fpMix(fpTagConst ^ fpLane)}
	var edges [3]fpHash
	for v := uint32(1); v <= g.MaxVar(); v++ {
		n := &g.nodes[v]
		if n.op == OpInput {
			h[v] = fpLeaf(fpTagInput, g.piIndex[v])
			continue
		}
		fans := g.Fanins(v)
		for i, f := range fans {
			edges[i] = fpEdge(h[f.Var()], f.IsCompl())
		}
		h[v] = fpNode(fpOpTag(n.op), edges[:len(fans)])
	}
	return h
}

// Fingerprint returns the canonical structural hash of the whole graph:
// its inputs (by position), outputs (in order, with phases) and every node
// in their cones.
func (g *AIG) Fingerprint() Fingerprint {
	h := g.nodeHashes()
	acc := fpHash{
		fpMix(fpTagRoot + uint64(len(g.pis))),
		fpMix(fpTagRoot ^ fpLane + uint64(len(g.pis))),
	}
	for _, r := range g.pos {
		e := fpEdge(h[r.Var()], r.IsCompl())
		acc[0] = fpMix(acc[0]*0x100000001b3 + e[0])
		acc[1] = fpMix(acc[1]*0xc6a4a7935bd1e995 + e[1])
	}
	return Fingerprint(acc)
}
