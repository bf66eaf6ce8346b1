package sat

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if st := s.Solve(); st != Sat {
		t.Fatalf("empty formula: %v", st)
	}
	s.AddClause(MkLit(a, false))
	if st := s.Solve(); st != Sat {
		t.Fatalf("unit: %v", st)
	}
	if !s.ModelValue(MkLit(a, false)) {
		t.Fatal("unit not satisfied in model")
	}
	s.AddClause(MkLit(a, true))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("contradiction: %v", st)
	}
	// Solver stays UNSAT forever after.
	if st := s.Solve(); st != Unsat {
		t.Fatal("solver should remain UNSAT")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause should report false")
	}
	if s.Solve() != Unsat {
		t.Fatal("expected UNSAT")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(MkLit(a, false), MkLit(a, true)) {
		t.Fatal("tautology rejected")
	}
	if s.NumClauses() != 0 {
		t.Fatal("tautology stored")
	}
	if s.Solve() != Sat {
		t.Fatal("tautology-only formula should be SAT")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// x1 & (x1->x2) & (x2->x3) ... & (x9->x10), then force !x10: UNSAT.
	s := New()
	vars := make([]int, 10)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(MkLit(vars[0], false))
	for i := 0; i+1 < len(vars); i++ {
		s.AddClause(MkLit(vars[i], true), MkLit(vars[i+1], false))
	}
	if s.Solve() != Sat {
		t.Fatal("chain should be SAT")
	}
	for _, v := range vars {
		if !s.ModelValue(MkLit(v, false)) {
			t.Fatal("all chain vars must be true")
		}
	}
	if s.Solve(MkLit(vars[9], true)) != Unsat {
		t.Fatal("chain with negated sink should be UNSAT under assumption")
	}
	// Assumptions don't poison the solver.
	if s.Solve() != Sat {
		t.Fatal("solver must recover after assumption UNSAT")
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a | b
	if s.Solve(MkLit(a, true)) != Sat {
		t.Fatal("a=false should still be SAT via b")
	}
	if !s.ModelValue(MkLit(b, false)) {
		t.Fatal("b must be true when a assumed false")
	}
	if s.Solve(MkLit(a, true), MkLit(b, true)) != Unsat {
		t.Fatal("both false should be UNSAT")
	}
	if s.Solve(MkLit(a, false), MkLit(b, false)) != Sat {
		t.Fatal("both true should be SAT")
	}
}

// pigeonhole generates PHP(n+1, n): n+1 pigeons in n holes, classic UNSAT.
func pigeonhole(s *Solver, pigeons, holes int) {
	v := make([][]int, pigeons)
	for p := range v {
		v[p] = make([]int, holes)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		cl := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = MkLit(v[p][h], false)
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(v[p1][h], true), MkLit(v[p2][h], true))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 7; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(%d,%d): got %v", n+1, n, st)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if st := s.Solve(); st != Sat {
		t.Fatalf("PHP(5,5): got %v", st)
	}
}

func TestBudgetReturnsUnknown(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // hard enough to exceed a tiny budget
	s.SetBudget(5)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("budgeted solve: got %v, want UNKNOWN", st)
	}
	s.SetBudget(-1)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("unbudgeted solve after reset: got %v", st)
	}
}

func TestContextCancellation(t *testing.T) {
	// An already-cancelled context aborts before any search.
	s := New()
	pigeonhole(s, 8, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("cancelled solve: got %v, want UNKNOWN", st)
	}
	// Removing the context restores normal solving.
	s.SetContext(nil)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("solve after clearing context: got %v, want UNSAT", st)
	}
	// Cancellation mid-search is observed by the stopped() poll.
	s2 := New()
	pigeonhole(s2, 12, 11) // far beyond the deadline below
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	s2.SetContext(ctx2)
	start := time.Now()
	if st := s2.Solve(); st != Unknown {
		t.Fatalf("deadline solve: got %v, want UNKNOWN", st)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation honored only after %v", elapsed)
	}
}

// random3SAT adds a deterministic random 3-SAT formula (distinct
// variables per clause) to the solver. Around ratio 4.5 the instances
// mix satisfiable and unsatisfiable outcomes and are non-trivial for
// unit propagation.
func random3SAT(s *Solver, vars, clauses int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < vars; i++ {
		s.NewVar()
	}
	for i := 0; i < clauses; i++ {
		a := rng.Intn(vars)
		b := rng.Intn(vars)
		for b == a {
			b = rng.Intn(vars)
		}
		c := rng.Intn(vars)
		for c == a || c == b {
			c = rng.Intn(vars)
		}
		s.AddClause(MkLit(a, rng.Intn(2) == 0), MkLit(b, rng.Intn(2) == 0), MkLit(c, rng.Intn(2) == 0))
	}
}

// TestSolvePreCancelledContext is the regression test for the
// pre-cancelled-context fix: Solve must return Unknown immediately
// instead of burning a restart round.
func TestSolvePreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	s := New()
	random3SAT(s, 60, 280, 7)
	s.SetContext(ctx)
	before := s.Stats()
	if st := s.Solve(); st != Unknown {
		t.Fatalf("Solve on pre-cancelled context: got %v, want Unknown", st)
	}
	if d := s.Stats().Sub(before); d.Conflicts != 0 || d.Decisions != 0 {
		t.Fatalf("Solve did work under a pre-cancelled context: %+v", d)
	}
	// The solver recovers once the hook is cleared.
	s.SetContext(nil)
	if st := s.Solve(); st == Unknown {
		t.Fatal("solver must solve normally after the cancelled context is removed")
	}
}

// brute checks satisfiability of a CNF by enumeration.
func brute(numVars int, cnf [][]Lit) (bool, []bool) {
	assign := make([]bool, numVars)
	for m := 0; m < 1<<numVars; m++ {
		for i := 0; i < numVars; i++ {
			assign[i] = m>>i&1 == 1
		}
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				if assign[l.Var()] != l.Neg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true, append([]bool(nil), assign...)
		}
	}
	return false, nil
}

func randomCNF(rng *rand.Rand, numVars, numClauses, maxLen int) [][]Lit {
	cnf := make([][]Lit, numClauses)
	for i := range cnf {
		n := 1 + rng.Intn(maxLen)
		cl := make([]Lit, n)
		for j := range cl {
			cl[j] = MkLit(rng.Intn(numVars), rng.Intn(2) == 1)
		}
		cnf[i] = cl
	}
	return cnf
}

// Property test: the solver agrees with brute force on random small CNFs,
// and its models really satisfy the formula.
func TestAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numVars := 3 + rng.Intn(8)
		cnf := randomCNF(rng, numVars, 2+rng.Intn(30), 4)
		s := New()
		for i := 0; i < numVars; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		st := s.Solve()
		want, _ := brute(numVars, cnf)
		if (st == Sat) != want {
			t.Logf("seed %d: solver %v, brute %v", seed, st, want)
			return false
		}
		if st == Sat {
			// Model must satisfy every clause.
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					if s.ModelValue(l) {
						ok = true
						break
					}
				}
				if !ok {
					t.Logf("seed %d: model does not satisfy clause %v", seed, cl)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property test: assumptions behave like temporary unit clauses.
func TestAssumptionsAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numVars := 3 + rng.Intn(6)
		cnf := randomCNF(rng, numVars, 2+rng.Intn(20), 3)
		nAssump := 1 + rng.Intn(3)
		assumps := make([]Lit, nAssump)
		for i := range assumps {
			assumps[i] = MkLit(rng.Intn(numVars), rng.Intn(2) == 1)
		}
		s := New()
		for i := 0; i < numVars; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		st := s.Solve(assumps...)
		withUnits := append([][]Lit{}, cnf...)
		for _, a := range assumps {
			withUnits = append(withUnits, []Lit{a})
		}
		want, _ := brute(numVars, withUnits)
		if (st == Sat) != want {
			t.Logf("seed %d: solver %v brute %v assumps %v", seed, st, want, assumps)
			return false
		}
		// Incremental reuse must keep working.
		st2 := s.Solve()
		want2, _ := brute(numVars, cnf)
		return (st2 == Sat) == want2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Incremental use: grow the formula between solves.
func TestIncrementalGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New()
	numVars := 8
	for i := 0; i < numVars; i++ {
		s.NewVar()
	}
	var cnf [][]Lit
	for step := 0; step < 40; step++ {
		cl := randomCNF(rng, numVars, 1, 3)[0]
		cnf = append(cnf, cl)
		s.AddClause(cl...)
		st := s.Solve()
		want, _ := brute(numVars, cnf)
		if (st == Sat) != want {
			t.Fatalf("step %d: solver %v brute %v", step, st, want)
		}
		if st == Unsat {
			break
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestXorChainForcesReduceDB(t *testing.T) {
	// A moderately hard random 3-SAT instance near threshold exercises
	// learning, restarts and DB reduction paths.
	rng := rand.New(rand.NewSource(5))
	s := New()
	n := 60
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for c := 0; c < int(4.2*float64(n)); c++ {
		var cl [3]Lit
		for j := range cl {
			cl[j] = MkLit(rng.Intn(n), rng.Intn(2) == 1)
		}
		s.AddClause(cl[:]...)
	}
	st := s.Solve()
	if st == Unknown {
		t.Fatal("unbudgeted solve returned UNKNOWN")
	}
	if st == Sat {
		// spot check recorded stats
		if s.Stats().Decisions == 0 {
			t.Fatal("no decisions recorded")
		}
	}
}

func BenchmarkPigeonhole8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("wrong result")
		}
	}
}

func BenchmarkRandom3SAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		s := New()
		n := 100
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		for c := 0; c < 4*n; c++ {
			var cl [3]Lit
			for j := range cl {
				cl[j] = MkLit(rng.Intn(n), rng.Intn(2) == 1)
			}
			s.AddClause(cl[:]...)
		}
		s.Solve()
	}
}

func TestProgressCallback(t *testing.T) {
	s := New()
	pigeonhole(s, 8, 7)
	var snaps []Progress
	s.SetProgress(50, func(p Progress) { snaps = append(snaps, p) })
	if s.Solve() != Unsat {
		t.Fatal("PHP(8,7) should be UNSAT")
	}
	if len(snaps) == 0 {
		t.Fatalf("no progress callbacks fired over %d conflicts", s.Stats().Conflicts)
	}
	// Snapshots must be spaced by the interval and monotone.
	for i, p := range snaps {
		if p.Conflicts < 50*int64(i+1) {
			t.Fatalf("snapshot %d at %d conflicts, want >= %d", i, p.Conflicts, 50*(i+1))
		}
		if i > 0 && p.Conflicts <= snaps[i-1].Conflicts {
			t.Fatalf("snapshots not monotone: %d then %d", snaps[i-1].Conflicts, p.Conflicts)
		}
		if p.Vars != s.NumVars() {
			t.Fatalf("snapshot vars = %d, want %d", p.Vars, s.NumVars())
		}
	}
	// Disabling stops further callbacks.
	s.SetProgress(0, nil)
	if s.progressFn != nil {
		t.Fatal("SetProgress(0, nil) did not disable reporting")
	}
}

func TestStatsDeltasAndDeletion(t *testing.T) {
	// A large hard instance drives the learnt DB over the reduction
	// threshold so Deleted/Reductions become nonzero.
	rng := rand.New(rand.NewSource(7))
	s := New()
	n := 120
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for c := 0; c < int(4.26*float64(n)); c++ {
		var cl [3]Lit
		for j := range cl {
			cl[j] = MkLit(rng.Intn(n), rng.Intn(2) == 1)
		}
		s.AddClause(cl[:]...)
	}
	s.SetBudget(80000)
	s.Solve()
	st := s.Stats()
	if st.Learnt == 0 || st.Propagations == 0 {
		t.Fatalf("expected learning and propagation work, got %+v", st)
	}
	if st.Reductions > 0 && st.Deleted == 0 {
		t.Fatalf("reduction passes ran but deleted nothing: %+v", st)
	}
	d := st.Sub(Stats{Conflicts: 1, Learnt: 1})
	if d.Conflicts != st.Conflicts-1 || d.Learnt != st.Learnt-1 || d.Deleted != st.Deleted {
		t.Fatalf("Sub delta wrong: %+v", d)
	}
}

// BenchmarkPigeonhole8Simp runs the same UNSAT instance through the
// SatELite-style simplifier first: the resolution-based eliminations
// shrink the formula before CDCL search, and the pair quantifies what
// preprocessing buys (or costs) on a search-bound instance.
func BenchmarkPigeonhole8Simp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 8, 7)
		if !s.Simplify(true) {
			continue // refuted during preprocessing: also a win
		}
		if s.Solve() != Unsat {
			b.Fatal("wrong result")
		}
	}
}

// After every Sat answer the VSIDS heap holds exactly the non-eliminated
// variables the answer assigned above level 0, which are unassigned
// again, in a valid heap order: the answer stops at a total assignment
// instead of draining the heap, so it must leave the heap a drain and
// reinsertion would. Random formulas are solved under assumptions, with
// Simplify and new clauses in between.
func TestHeapAfterSatHoldsUnassignedVars(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sats := 0
	for i := 0; i < 200; i++ {
		nVars := 8 + rng.Intn(40)
		s := loadInstance(randomInstance(rng, nVars, nVars+rng.Intn(3*nVars)), nVars)
		const nIface = 6
		for v := 0; v < nIface; v++ {
			s.FreezeLit(MkLit(v, false))
		}
		if rng.Intn(2) == 0 {
			s.SetRandomPolarity(rng.Int63())
		}
		for round := 0; round < 6; round++ {
			if rng.Intn(3) == 0 {
				s.Simplify(true)
			}
			var assumps []Lit
			for v := 0; v < nIface; v++ {
				if rng.Intn(3) == 0 {
					assumps = append(assumps, MkLit(v, rng.Intn(2) == 0))
				}
			}
			if s.Solve(assumps...) != Sat {
				continue
			}
			sats++
			checkHeapAfterSat(t, s)
			if rng.Intn(2) == 0 {
				s.AddClause(MkLit(rng.Intn(nIface), rng.Intn(2) == 0), MkLit(rng.Intn(nIface), rng.Intn(2) == 0))
			}
		}
	}
	if sats < 200 {
		t.Fatalf("only %d Sat answers checked", sats)
	}
}

func checkHeapAfterSat(t *testing.T, s *Solver) {
	t.Helper()
	h := &s.order
	free := 0
	for v := 0; v < s.numVars; v++ {
		want := !s.elim[v] && s.valueVar(v) == lUndef
		if h.inHeap(v) != want {
			t.Fatalf("var %d: in heap %v, want %v (eliminated %v, value %d)", v, h.inHeap(v), want, s.elim[v], s.valueVar(v))
		}
		if want {
			free++
		}
	}
	if len(h.heap) != free {
		t.Fatalf("heap holds %d entries, want %d", len(h.heap), free)
	}
	for i, v := range h.heap {
		if h.indices[v] != i {
			t.Fatalf("heap position %d holds var %d indexed at %d", i, v, h.indices[v])
		}
		if i > 0 && h.less(v, h.heap[(i-1)/2]) {
			t.Fatalf("heap position %d is more active than its parent", i)
		}
	}
}
