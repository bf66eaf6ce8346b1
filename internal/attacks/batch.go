package attacks

import (
	"obfuslock/internal/cnf"
	"obfuslock/internal/locking"
	"obfuslock/internal/sat"
)

// defaultDIPBatch is the per-round DIP enumeration width when
// IOOptions.DIPBatch is 0. Sixty-four fills one bit-parallel
// simulation word exactly, so a round's oracle pass costs the same as
// a single pattern while the solve count drops 64-fold; since the
// solver (not simplification) dominates round cost, the widest batch
// wins on the point-function benchmarks (see EXPERIMENTS.md). The
// geometric width ramp keeps the wide default from burning iteration
// budgets on instances that terminate after a handful of DIPs.
const defaultDIPBatch = 64

// buildMiter constructs the two-copy difference miter: both copies of
// the locked circuit share the input literals x, keep independent key
// literals k1/k2, and the output XORs are OR-ed into a difference signal
// guarded by the frozen activation literal act (act -> diff).
func buildMiter(l *locking.Locked) (s *sat.Solver, x, k1, k2 []sat.Lit, act sat.Lit) {
	s = sat.New()
	e1 := cnf.NewEncoder(l.Enc, s)
	e2 := cnf.NewEncoder(l.Enc, s)
	x = make([]sat.Lit, l.NumInputs)
	for i := range x {
		x[i] = e1.InputLit(i)
		e2.TieInput(i, x[i])
	}
	k1 = make([]sat.Lit, l.KeyBits)
	k2 = make([]sat.Lit, l.KeyBits)
	for i := 0; i < l.KeyBits; i++ {
		k1[i] = e1.InputLit(l.NumInputs + i)
		k2[i] = e2.InputLit(l.NumInputs + i)
	}
	o1 := e1.Encode()
	o2 := e2.Encode()
	diffs := make([]sat.Lit, len(o1))
	for i := range o1 {
		diffs[i] = cnf.XorLit(s, o1[i], o2[i])
	}
	diff := cnf.OrLit(s, diffs...)
	act = sat.MkLit(s.NewVar(), false)
	// act -> diff: the miter is active only under assumption act. The
	// activation literal is assumed both ways later, so it must survive
	// preprocessing.
	s.FreezeLit(act)
	s.AddClause(diff, act.Not())
	return s, x, k1, k2, act
}

// blockDIP permanently excludes one input pattern from DIP enumeration.
// The clause carries the deactivated miter literal, so it can never
// constrain key extraction (which assumes act false), and once the
// pattern's I/O constraint is recorded the clause is implied outright —
// adding it can therefore never flip a later round's termination
// answer.
func (st *attackState) blockDIP(dip []bool) {
	lits := append(st.blockBuf[:0], st.actDiff.Not())
	for i, xl := range st.xLits {
		if dip[i] {
			lits = append(lits, xl.Not())
		} else {
			lits = append(lits, xl)
		}
	}
	st.blockBuf = lits
	st.s.AddClause(lits...)
}

// dipRound runs the solve-and-enumerate half of one pipeline round: it
// solves the active miter and, on Sat, harvests up to k distinct DIPs by
// blocking each one and re-solving. The returned status is the round's
// *first* solve answer — the only one that decides termination. A
// non-Sat answer during enumeration merely ends the batch early: Unsat
// there just means no pattern distinct from the blocked ones exists
// until the I/O constraints land, and Unknown (budget or cancellation)
// is noticed by the caller on the next round.
func (st *attackState) dipRound(k int) (sat.Status, [][]bool) {
	status := st.s.Solve(st.actDiff)
	if status != sat.Sat {
		return status, nil
	}
	dips := make([][]bool, 0, k)
	for {
		dip := make([]bool, len(st.xLits))
		for i, xl := range st.xLits {
			dip[i] = st.s.ModelValue(xl)
		}
		dips = append(dips, dip)
		if len(dips) >= k {
			break
		}
		st.blockDIP(dip)
		if st.s.Solve(st.actDiff) != sat.Sat {
			break
		}
	}
	return sat.Sat, dips
}

// extractKey returns the lexicographically smallest key consistent with
// every recorded I/O constraint, or nil when none exists. After an
// exact termination the consistent keys are exactly the functionally
// correct keys, so the canonical choice makes the recovered key a
// property of the circuit alone: byte-identical at any DIP batch width,
// worker count or constraint order.
//
// The minimization reuses each Sat model to skip bits already false, so
// it solves at most once per model-true bit. If a trial solve is cut
// off (cancellation), the prefix decided so far completed with the
// current model is still a consistent key and is returned as-is.
func (st *attackState) extractKey() []bool {
	off := st.actDiff.Not()
	if st.s.Solve(off) != sat.Sat {
		return nil
	}
	key := make([]bool, st.l.KeyBits)
	for i, kl := range st.k1Lits {
		key[i] = st.s.ModelValue(kl)
	}
	assumps := make([]sat.Lit, 1, st.l.KeyBits+2)
	assumps[0] = off
	for i, kl := range st.k1Lits {
		if !key[i] {
			assumps = append(assumps, kl.Not())
			continue
		}
		trial := append(assumps[:len(assumps):len(assumps)], kl.Not())
		switch st.s.Solve(trial...) {
		case sat.Sat:
			key[i] = false
			for j := i + 1; j < st.l.KeyBits; j++ {
				key[j] = st.s.ModelValue(st.k1Lits[j])
			}
			assumps = append(assumps, kl.Not())
		case sat.Unsat:
			assumps = append(assumps, kl)
		default:
			return key
		}
	}
	return key
}
