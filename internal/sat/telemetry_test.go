package sat

import "testing"

// phpClauses encodes the pigeonhole principle PHP(n+1, n): n+1 pigeons
// into n holes, unsatisfiable and guaranteed to generate conflicts and
// nontrivial learnt clauses.
func phpClauses(s *Solver, holes int) {
	pigeons := holes + 1
	vars := make([][]int, pigeons)
	for p := 0; p < pigeons; p++ {
		vars[p] = make([]int, holes)
		for h := 0; h < holes; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = MkLit(vars[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
			}
		}
	}
}

// TestTelemetryDoesNotChangeSearch pins that the solver's telemetry hook,
// the progress callback the traced attack installs, is observation-only:
// identical solver work with and without it.
func TestTelemetryDoesNotChangeSearch(t *testing.T) {
	run := func(progress func(Progress)) Stats {
		s := New()
		s.SetProgress(64, progress)
		phpClauses(s, 5)
		s.Solve()
		return s.Stats()
	}
	plain := run(nil)
	calls := 0
	traced := run(func(Progress) { calls++ })
	if calls == 0 {
		t.Fatal("progress callback never ran")
	}
	if plain != traced {
		t.Fatalf("telemetry changed search: %+v vs %+v", plain, traced)
	}
}
