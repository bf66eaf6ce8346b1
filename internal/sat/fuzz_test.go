package sat

import (
	"fmt"
	"slices"
	"testing"
)

// decodeFuzzCNF turns raw fuzz bytes into a small CNF: the first byte
// picks the variable count (3..8, small enough for brute-force
// reference), each following byte either terminates the current clause
// (b%5 == 0, so empty clauses are reachable) or appends a literal. The
// decoder is total — every input maps to some formula — which keeps the
// fuzzer exploring solver behavior instead of input validation.
func decodeFuzzCNF(data []byte) (numVars int, cnf [][]Lit) {
	if len(data) == 0 {
		return 3, nil
	}
	numVars = 3 + int(data[0])%6
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
// neither the verdict nor model validity. This is the main soundness
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
		numVars, cnf := decodeFuzzCNF(data)
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
			// ModelValue transparently replays eliminated variables, so the
			// model must cover the original formula, not just the remnant.
			checkModel(t, ss, "simplified")
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
	})
}

// sameAnswer solves both solvers under the same assumption and fails
// unless their statuses, models and work counters agree.
func sameAnswer(t *testing.T, mode string, x, y *Solver, assump Lit) {
	t.Helper()
	sx, sy := x.Solve(assump), y.Solve(assump)
	if sx != sy {
		t.Fatalf("%s: status %v, want %v", mode, sy, sx)
	}
	if sx == Sat && !slices.Equal(x.Model(), y.Model()) {
		t.Fatalf("%s: model %v, want %v", mode, y.Model(), x.Model())
	}
	if x.Stats() != y.Stats() {
		t.Fatalf("%s: stats %+v, want %+v", mode, y.Stats(), x.Stats())
	}
}
