package sat

import (
	"fmt"
	"slices"
	"testing"
)

// decodeFuzzCNF turns raw fuzz bytes into a small CNF: the first byte
// picks the variable count (lo..lo+span-1; 3..8 is small enough for a
// brute-force reference), each following byte either terminates the
// current clause (b%5 == 0, so empty clauses are reachable) or appends a literal. The
// decoder is total — every input maps to some formula — which keeps the
// fuzzer exploring solver behavior instead of input validation.
func decodeFuzzCNF(data []byte, lo, span int) (numVars int, cnf [][]Lit) {
	if len(data) == 0 {
		return lo, nil
	}
	numVars = lo + int(data[0])%span
	var clause []Lit
	for _, b := range data[1:] {
		if len(cnf) >= 64 {
			break
		}
		if b%5 == 0 {
			cnf = append(cnf, clause)
			clause = nil
			continue
		}
		v := int(b>>1) % numVars
		clause = append(clause, MkLit(v, b&1 == 1))
		if len(clause) >= 8 {
			cnf = append(cnf, clause)
			clause = nil
		}
	}
	if len(clause) > 0 {
		cnf = append(cnf, clause)
	}
	return numVars, cnf
}

// FuzzSolverVsReference differentially tests the CDCL solver against
// brute-force enumeration: verdicts must agree on every decoded
// formula, SAT models must actually satisfy it, and running Simplify
// (subsumption + variable elimination + vivification) first must change
// neither the verdict nor that the model, over the variables left,
// extends to one of the whole formula. This is the main soundness
// net over the arena clause store: any corruption from compaction,
// in-place shrinking, or watcher remapping shows up as a verdict
// mismatch or a bogus model on some small formula.
func FuzzSolverVsReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 7, 0, 9, 12, 0})
	f.Add([]byte{5, 3, 3, 0, 4, 4, 0, 2, 9, 11, 0, 13, 6, 0})
	f.Add([]byte{7, 1, 2, 4, 0, 6, 8, 10, 0, 12, 14, 1, 0, 3, 7, 0, 9, 13, 0})
	f.Add([]byte{2, 5}) // empty clause: immediately UNSAT
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		numVars, cnf := decodeFuzzCNF(data, 3, 6)
		want, _ := brute(numVars, cnf)

		hasEmpty := false
		for _, cl := range cnf {
			if len(cl) == 0 {
				hasEmpty = true
			}
		}

		build := func() *Solver {
			s := New()
			for i := 0; i < numVars; i++ {
				s.NewVar()
			}
			for _, cl := range cnf {
				s.AddClause(cl...)
			}
			return s
		}
		checkModel := func(t *testing.T, s *Solver, mode string) {
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					if s.ModelValue(l) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("%s: model does not satisfy clause %v", mode, cl)
				}
			}
		}

		s := build()
		if got := s.Solve(); (got == Sat) != want {
			t.Fatalf("plain: solver %v, brute-force %v (vars=%d cnf=%v)", got, want, numVars, cnf)
		} else if got == Sat {
			checkModel(t, s, "plain")
		}

		// The simplified solver must agree too. Skip the empty-clause case:
		// Simplify requires a solver that is still ok.
		if hasEmpty {
			return
		}
		ss := build()
		ss.Simplify(true)
		if got := ss.Solve(); (got == Sat) != want {
			t.Fatalf("simplified: solver %v, brute-force %v (vars=%d cnf=%v)", got, want, numVars, cnf)
		} else if got == Sat {
			// The model holds no eliminated variable. Fixing the others to
			// it must leave the original formula satisfiable, which brute
			// force over the eliminated variables decides.
			fixed := slices.Clone(cnf)
			for _, l := range modelLits(ss) {
				fixed = append(fixed, []Lit{l})
			}
			if ok, _ := brute(numVars, fixed); !ok {
				t.Fatalf("simplified: model %v does not extend to cnf %v (vars=%d)", modelLits(ss), cnf, numVars)
			}
		}

		// A clone taken after the optional Simplify answers exactly as its
		// original, under the same assumption, and a clause added to the
		// clone leaves the original's next answer unchanged. The assumed
		// variable is frozen so that elimination keeps it.
		a := MkLit(len(data)%numVars, len(data)%2 == 1)
		for _, simplify := range []bool{false, true} {
			o := build()
			o.FreezeLit(a)
			if simplify {
				o.Simplify(true)
			}
			c := o.Clone()
			sameAnswer(t, fmt.Sprintf("clone (simplify=%v)", simplify), o, c, a)
			ref := o.Clone()
			c.AddClause(a.Not())
			c.Solve(a)
			sameAnswer(t, fmt.Sprintf("original after clone edit (simplify=%v)", simplify), ref, o, a)
		}

		// A clone taken after Simplify simplifies again as its original
		// does (see resimplifyPair): both must agree on every counter and
		// answer alike under a frozen variable.
		o, c, ok := resimplifyPair(data)
		if !ok {
			return
		}
		if o.SimpStats() != c.SimpStats() {
			t.Fatalf("clone re-simplified: simp stats %+v, want %+v", c.SimpStats(), o.SimpStats())
		}
		a = MkLit(0, len(data)%2 == 1)
		sameAnswer(t, "clone re-simplified", o, c, a)
	})
}

// resimplifyPair decodes data into a formula of 6..36 variables, every
// third one frozen, simplifies it, clones the solver, and then adds the
// same clause over two variables the pass left free to the original and
// the clone and simplifies both again. The clone starts without the
// original's pooled simplifier, so the two second passes differ if that
// pool carries state from one pass to the next that changes what a pass
// does. No brute-force reference is needed, so the formula is wider than
// FuzzSolverVsReference's main one. It is no guard for the touched flags
// of TestSimplifyLeavesNoTouchedFlag: a flag left set falls almost only
// on a fixed, eliminated or frozen variable, and fuzzing a simplifier
// that left them set found no input on which they changed a counter.
// ok is false if the first pass proves the formula unsatisfiable or
// leaves no variable free.
func resimplifyPair(data []byte) (o, c *Solver, ok bool) {
	numVars, cnf := decodeFuzzCNF(data, 6, 31)
	o = New()
	for v := 0; v < numVars; v++ {
		o.NewVar()
		if v%3 == 0 {
			o.FreezeLit(MkLit(v, false))
		}
	}
	for _, cl := range cnf {
		o.AddClause(cl...)
	}
	if !o.Simplify(true) {
		return nil, nil, false
	}
	var extra []Lit
	for i := 0; i < numVars && len(extra) < 2; i++ {
		v := (i + len(data)) % numVars
		if v%3 != 0 && !o.Eliminated(v) && o.valueLit(MkLit(v, false)) == lUndef {
			extra = append(extra, MkLit(v, v%2 == len(data)%2))
		}
	}
	if len(extra) == 0 {
		return nil, nil, false
	}
	c = o.Clone()
	for _, x := range []*Solver{o, c} {
		x.AddClause(extra...)
		x.Simplify(true)
	}
	return o, c, true
}

// sameAnswer solves both solvers under the same assumption and fails
// unless their eliminated variables, statuses, models over the variables
// left and work counters agree.
func sameAnswer(t *testing.T, mode string, x, y *Solver, assump Lit) {
	t.Helper()
	if !slices.Equal(x.elim, y.elim) {
		t.Fatalf("%s: eliminated %v, want %v", mode, y.elim, x.elim)
	}
	sx, sy := x.Solve(assump), y.Solve(assump)
	if sx != sy {
		t.Fatalf("%s: status %v, want %v", mode, sy, sx)
	}
	if sx == Sat && !slices.Equal(modelLits(x), modelLits(y)) {
		t.Fatalf("%s: model %v, want %v", mode, modelLits(y), modelLits(x))
	}
	if x.Stats() != y.Stats() {
		t.Fatalf("%s: stats %+v, want %+v", mode, y.Stats(), x.Stats())
	}
}
