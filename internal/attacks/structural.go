package attacks

import (
	"context"
	"math"
	"sort"
	"time"

	"obfuslock/internal/aig"
	"obfuslock/internal/cec"
	"obfuslock/internal/cnf"
	"obfuslock/internal/exec"
	"obfuslock/internal/locking"
	"obfuslock/internal/sat"
	"obfuslock/internal/sim"
	"obfuslock/internal/simp"
)

// SPSResult reports the signal-probability-skewness analysis.
type SPSResult struct {
	// Candidates are internal node variables ranked by skewness (most
	// skewed first).
	Candidates []uint32
	// SkewBits are the matching skewness values in bits.
	SkewBits []float64
	// All maps every variable to its skewness bits (Fig. 4 raw data).
	All []float64
}

// SPS runs the signal probability skewness attack (Yasin et al.): simulate
// the locked netlist under random inputs and random keys and rank internal
// nodes by skewness; single-flip defences expose their flip node as the
// extreme outlier.
func SPS(l *locking.Locked, words int, seed int64, topK int) SPSResult {
	v := sim.RunRandom(l.Enc, words, seed)
	type entry struct {
		v    uint32
		bits float64
	}
	all := make([]float64, l.Enc.MaxVar()+1)
	var entries []entry
	for n := uint32(1); n <= l.Enc.MaxVar(); n++ {
		p := v.OnesFraction(aig.MkLit(n, false))
		b := skewBits(p)
		all[n] = b
		if l.Enc.Op(n) == aig.OpInput {
			continue
		}
		entries = append(entries, entry{n, b})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].bits > entries[j].bits })
	if len(entries) > topK {
		entries = entries[:topK]
	}
	res := SPSResult{All: all}
	for _, e := range entries {
		res.Candidates = append(res.Candidates, e.v)
		res.SkewBits = append(res.SkewBits, e.bits)
	}
	return res
}

func skewBits(p float64) float64 {
	h := math.Min(p, 1-p)
	if h <= 0 {
		return math.Inf(1)
	}
	return -math.Log2(h)
}

// RemovalResult reports a removal attack outcome.
type RemovalResult struct {
	Success  bool
	Node     uint32
	Constant bool
	Tried    int
	// Undecided counts checks the budget or a cancellation left open; a
	// search stopped by cancellation counts its unchecked rest as one
	// more. A failed search with Undecided > 0 proves no resistance.
	Undecided int
	Runtime   time.Duration
}

// Removal runs the removal attack: take the most skewed candidate nodes,
// replace each with a constant (both polarities), bind an arbitrary key,
// and check equivalence with the original. Single-flip defences fall to
// this; ObfusLock leaves no removable node. The checks share one base
// (cec.NewPinned).
func Removal(ctx context.Context, l *locking.Locked, orig *aig.AIG, candidates []uint32, opt cec.Options) (res RemovalResult) {
	start := time.Now()
	defer func() { res.Runtime = time.Since(start) }()
	pc, err := cec.NewPinned(ctx, orig, l.Enc, make([]bool, l.KeyBits), opt)
	if err != nil {
		res.Undecided++
		return res
	}
	for _, cand := range candidates {
		for _, val := range []bool{false, true} {
			if ctx != nil && ctx.Err() != nil {
				res.Undecided++
				return res
			}
			res.Tried++
			switch r := pc.Check(ctx, map[uint32]bool{cand: val}); {
			case !r.Decided:
				res.Undecided++
			case r.Equivalent:
				res.Success = true
				res.Node = cand
				res.Constant = val
				return res
			}
		}
	}
	return res
}

// BypassResult reports a bypass attack outcome.
type BypassResult struct {
	// Success is true when all differing patterns were enumerated within
	// the budget (a bypass unit of that size would restore the chip).
	Success bool
	// Patterns actually enumerated.
	Patterns int
	// Exhausted is true when the pattern budget was hit (attack failed:
	// the corrupted set is too large to bypass).
	Exhausted bool
	Runtime   time.Duration
}

// Bypass runs the bypass attack (Xu et al.): pick a wrong key, enumerate
// every input pattern on which the wrongly-keyed circuit differs from the
// oracle, and wrap them with bypass logic. It fails when the differing set
// exceeds the pattern budget — ObfusLock protects all patterns by
// permutation, so the set is exponential. The difference miter is
// preprocessed with full elimination, which is sound because the
// enumeration blocks and reads only the frozen input literals.
func Bypass(ctx context.Context, l *locking.Locked, orig *aig.AIG, wrongKey []bool, maxPatterns int, budget exec.Budget) BypassResult {
	start := time.Now()
	bound := l.ApplyKey(wrongKey)
	s := sat.New()
	inputs, diff := cnf.Miter(s, orig, bound)
	s.AddClause(diff)
	s.SetBudget(budget.ConflictCap())
	s.SetContext(ctx)
	res := BypassResult{}
	if !simp.Apply(s, true, nil) {
		// No differing pattern at all: the wrong key is correct.
		res.Success = true
		res.Runtime = time.Since(start)
		return res
	}
	for res.Patterns <= maxPatterns {
		switch s.Solve() {
		case sat.Sat:
			res.Patterns++
			if res.Patterns > maxPatterns {
				res.Exhausted = true
				res.Runtime = time.Since(start)
				return res
			}
			block := make([]sat.Lit, len(inputs))
			for i, il := range inputs {
				if s.ModelValue(il) {
					block[i] = il.Not()
				} else {
					block[i] = il
				}
			}
			if !s.AddClause(block...) {
				res.Success = true
				res.Runtime = time.Since(start)
				return res
			}
		case sat.Unsat:
			res.Success = true
			res.Runtime = time.Since(start)
			return res
		default:
			res.Runtime = time.Since(start)
			return res // undecided: treat as failure
		}
	}
	res.Exhausted = true
	res.Runtime = time.Since(start)
	return res
}

// ValkyrieResult reports the perturb/restore search.
type ValkyrieResult struct {
	// FoundPair is true when constants for a (perturb, restore) node pair
	// reproduce the original circuit.
	FoundPair bool
	Perturb   uint32
	Restore   uint32
	// RestoreOnly is true when killing the restore unit alone reproduces
	// the functionality-stripped circuit (Valkyrie's first phase): the
	// attack then still needs the perturb node, which ObfusLock removes.
	RestoreOnly bool
	PairsTried  int
	// Undecided counts checks the budget or a cancellation left open, as
	// in RemovalResult.
	Undecided int
	Runtime   time.Duration
}

// Valkyrie runs a Valkyrie-style vulnerability assessment (Limaye et al.):
// shortlist skewed nodes, then search for a node pair whose simultaneous
// constant replacement makes the locked circuit equivalent to the oracle.
// The checks share one base (cec.NewPinned).
func Valkyrie(ctx context.Context, l *locking.Locked, orig *aig.AIG, shortlist int, simWords int, seed int64, opt cec.Options) (res ValkyrieResult) {
	start := time.Now()
	defer func() { res.Runtime = time.Since(start) }()
	sps := SPS(l, simWords, seed, shortlist)
	pc, err := cec.NewPinned(ctx, orig, l.Enc, make([]bool, l.KeyBits), opt)
	if err != nil {
		res.Undecided++
		return res
	}
	// equal checks one variant; stop reports a cancelled search.
	equal := func(pins map[uint32]bool) bool {
		r := pc.Check(ctx, pins)
		if !r.Decided {
			res.Undecided++
		}
		return r.Decided && r.Equivalent
	}
	stop := func() bool {
		if ctx != nil && ctx.Err() != nil {
			res.Undecided++
			return true
		}
		return false
	}
	// Phase 1: restore-only (single-node) replacements.
	for _, cand := range sps.Candidates {
		for _, val := range []bool{false, true} {
			if stop() {
				return res
			}
			if equal(map[uint32]bool{cand: val}) {
				res.RestoreOnly = true
				res.Restore = cand
				// A single node sufficed — report it as a full break.
				res.FoundPair = true
				res.Perturb = cand
				return res
			}
		}
	}
	// Phase 2: pairs.
	for i, p := range sps.Candidates {
		for j, r := range sps.Candidates {
			if i == j {
				continue
			}
			for _, pv := range []bool{false, true} {
				for _, rv := range []bool{false, true} {
					if stop() {
						return res
					}
					res.PairsTried++
					if equal(map[uint32]bool{p: pv, r: rv}) {
						res.FoundPair = true
						res.Perturb = p
						res.Restore = r
						return res
					}
				}
			}
		}
	}
	return res
}

// CriticalNodeSurvives checks whether any node of enc (keys bound to a
// wrong key, locking.Locked.WrongKeyBound) is functionally equivalent to
// the given function of the original inputs — the paper's
// combinational-equivalence check that all critical nodes were eliminated.
// It is the "found" view of cec.FindNode: false covers both a refuted and
// an undecided search.
func CriticalNodeSurvives(ctx context.Context, l *locking.Locked, specG *aig.AIG, spec aig.Lit, opt cec.FindOptions) (aig.Lit, bool) {
	lit, v := cec.FindNode(ctx, l.WrongKeyBound(), specG, spec, opt)
	return lit, v == cec.Found
}
