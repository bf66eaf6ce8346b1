package sat

import (
	"math/rand"
	"testing"
)

// randomInstance builds a random CNF over nVars with mixed clause
// lengths (1..4), biased toward 3. Returns the clause list so tests can
// re-add it to a second solver and evaluate models against the
// original, unsimplified formula.
func randomInstance(rng *rand.Rand, nVars, nClauses int) [][]Lit {
	cls := make([][]Lit, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		n := 3
		switch rng.Intn(6) {
		case 0:
			n = 2
		case 1:
			n = 4
		case 2:
			if rng.Intn(4) == 0 {
				n = 1
			}
		}
		seen := map[int]bool{}
		var cl []Lit
		for len(cl) < n {
			v := rng.Intn(nVars)
			if seen[v] {
				continue
			}
			seen[v] = true
			cl = append(cl, MkLit(v, rng.Intn(2) == 1))
		}
		cls = append(cls, cl)
	}
	return cls
}

func loadInstance(cls [][]Lit, nVars int) *Solver {
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, cl := range cls {
		s.AddClause(cl...)
	}
	return s
}

// modelLits returns, for every variable the solver has not eliminated,
// the literal its last Sat answer made true.
func modelLits(s *Solver) []Lit {
	var lits []Lit
	for v := 0; v < s.NumVars(); v++ {
		if !s.Eliminated(v) {
			lits = append(lits, MkLit(v, !s.ModelValue(MkLit(v, false))))
		}
	}
	return lits
}

// modelExtends reports whether the last model of s, restricted to the
// variables it has not eliminated, extends to a model of the original
// clause list: a plain, never simplified solver over cls, assuming
// those literals, must find values for the eliminated variables.
func modelExtends(s *Solver, cls [][]Lit, nVars int) bool {
	return loadInstance(cls, nVars).Solve(modelLits(s)...) == Sat
}

// TestSimplifyCrossCheck solves 100 random instances twice — plain and
// simplified — and demands identical statuses plus a model that
// extends to one satisfying every original clause.
func TestSimplifyCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		nVars := 8 + rng.Intn(40)
		nClauses := nVars + rng.Intn(4*nVars)
		cls := randomInstance(rng, nVars, nClauses)

		plain := loadInstance(cls, nVars)
		want := plain.Solve()

		simped := loadInstance(cls, nVars)
		simped.Simplify(true)
		got := simped.Solve()

		if got != want {
			t.Fatalf("instance %d: plain=%v simplified=%v", i, want, got)
		}
		if got == Sat && !modelExtends(simped, cls, nVars) {
			t.Fatalf("instance %d: model does not extend to the original clauses", i)
		}
	}
}

// TestSimplifyAssumptionsAfterElimination freezes an interface subset,
// simplifies, and cross-checks assumption solving against a plain
// solver over every assumption pattern of the interface.
func TestSimplifyAssumptionsAfterElimination(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		nVars := 10 + rng.Intn(20)
		cls := randomInstance(rng, nVars, 3*nVars)
		const nIface = 4

		plain := loadInstance(cls, nVars)
		simped := loadInstance(cls, nVars)
		for v := 0; v < nIface; v++ {
			simped.FreezeLit(MkLit(v, false))
		}
		simped.Simplify(true)

		for pat := 0; pat < 1<<nIface; pat++ {
			assumps := make([]Lit, nIface)
			for v := 0; v < nIface; v++ {
				assumps[v] = MkLit(v, pat>>v&1 == 1)
			}
			want := plain.Solve(assumps...)
			got := simped.Solve(assumps...)
			if got != want {
				t.Fatalf("instance %d pattern %b: plain=%v simplified=%v", i, pat, want, got)
			}
			if got == Sat {
				if !modelExtends(simped, cls, nVars) {
					t.Fatalf("instance %d pattern %b: model does not extend to the original clauses", i, pat)
				}
				for v := 0; v < nIface; v++ {
					if simped.ModelValue(assumps[v]) != true {
						t.Fatalf("instance %d pattern %b: assumption %d not honored", i, pat, v)
					}
				}
			}
		}
	}
}

// TestSimplifyIncrementalClausesOnFrozen checks the incremental
// contract: clauses added after Simplify over frozen variables keep the
// solver sound.
func TestSimplifyIncrementalClausesOnFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		nVars := 12 + rng.Intn(16)
		cls := randomInstance(rng, nVars, 3*nVars)
		plain := loadInstance(cls, nVars)
		simped := loadInstance(cls, nVars)
		for v := 0; v < 5; v++ {
			simped.FreezeLit(MkLit(v, false))
		}
		simped.Simplify(true)

		extra := [][]Lit{
			{MkLit(0, false), MkLit(1, true)},
			{MkLit(2, false), MkLit(3, false), MkLit(4, true)},
			{MkLit(1, false), MkLit(4, false)},
		}
		for _, cl := range extra {
			plain.AddClause(cl...)
			simped.AddClause(cl...)
			want := plain.Solve()
			got := simped.Solve()
			if got != want {
				t.Fatalf("instance %d: after extra clause: plain=%v simplified=%v", i, want, got)
			}
			if got == Sat && !modelExtends(simped, cls, nVars) {
				t.Fatalf("instance %d: model does not extend to the original clauses", i)
			}
		}
	}
}

// TestSimplifyPanicsOnEliminatedUse pins the misuse contract: touching
// an eliminated variable with a new clause, an assumption or a model
// read panics instead of silently corrupting the answer.
func TestSimplifyPanicsOnEliminatedUse(t *testing.T) {
	s := New()
	// x0 appears only in two-literal chains and nothing is frozen, so
	// elimination will remove some variable; find one.
	for i := 0; i < 8; i++ {
		s.NewVar()
	}
	for i := 0; i+1 < 8; i++ {
		s.AddClause(MkLit(i, true), MkLit(i+1, false))
	}
	s.Simplify(true)
	victim := -1
	for v := 0; v < 8; v++ {
		if s.Eliminated(v) {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Skip("no variable eliminated on this toy instance")
	}
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic on eliminated variable", name)
			}
		}()
		f()
	}
	assertPanics("AddClause", func() { s.AddClause(MkLit(victim, false)) })
	assertPanics("Solve assumption", func() { s.Solve(MkLit(victim, false)) })
	if s.Solve() != Sat {
		t.Fatal("chain instance should be SAT")
	}
	assertPanics("ModelValue", func() { s.ModelValue(MkLit(victim, false)) })
}

// TestSimplifyUnsatDetected checks that Simplify itself reports
// unsatisfiability discovered during preprocessing.
func TestSimplifyUnsatDetected(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(a, true), MkLit(b, true))
	if s.Simplify(true) {
		t.Fatal("expected Simplify to refute the formula")
	}
	if s.Solve() != Unsat {
		t.Fatal("solver should be UNSAT after refuting Simplify")
	}
}

// TestSimplifyStats sanity-checks that the counters move on an
// instance constructed to exercise each technique.
func TestSimplifyStats(t *testing.T) {
	s := New()
	n := 30
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	// Subsumption: (0 1) subsumes (0 1 2).
	s.AddClause(MkLit(0, false), MkLit(1, false))
	s.AddClause(MkLit(0, false), MkLit(1, false), MkLit(2, false))
	// Chain for elimination.
	for i := 3; i+1 < n; i++ {
		s.AddClause(MkLit(i, true), MkLit(i+1, false))
	}
	if !s.Simplify(true) {
		t.Fatal("unexpected UNSAT")
	}
	st := s.SimpStats()
	if st.SubsumedClauses == 0 {
		t.Error("expected at least one subsumed clause")
	}
	if st.ElimVars == 0 {
		t.Error("expected at least one eliminated variable")
	}
	if st.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", st.Rounds)
	}
	if s.Solve() != Sat {
		t.Fatal("chain instance should be SAT")
	}
}
