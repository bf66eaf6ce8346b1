// Package simp runs one pass of the SAT solver's SatELite-style
// simplifier (internal/sat's Simplify) under a "sat.simplify" span, so
// that consumer packages share the observability plumbing.
//
// Preprocessing is a fixed policy in every consumer, not an option: the
// one-shot solves (CEC miters, model counting, witness sampling, the
// dead-key-bit check, sensitization and bypass) freeze what they read
// back and eliminate everything else; the incremental solvers that keep
// encoding cones over internal variables (fraig's sweep, cec.FindNode's
// candidate scan) run without variable elimination. The only switch is
// the SAT/AppSAT DIP loop's (attacks.IOOptions.NoSimp, the CLIs'
// -simp=false).
package simp

import (
	"obfuslock/internal/obs"
	"obfuslock/internal/sat"
)

// Apply runs one simplification pass on the solver, with bounded
// variable elimination when varElim is set, under a "sat.simplify" span
// whose end fields carry the pass's deltas. It returns false when
// simplification refutes the formula (like sat.Solver.Simplify); callers
// treat that exactly like an Unsat solve answer. A nil tracer costs
// nothing beyond the pass itself.
func Apply(s *sat.Solver, varElim bool, tr *obs.Tracer) bool {
	sp := tr.Span("sat.simplify",
		obs.Int("vars", int64(s.NumVars())),
		obs.Int("clauses", int64(s.NumClauses())))
	before := s.SimpStats()
	ok := s.Simplify(varElim)
	d := s.SimpStats().Sub(before)
	sp.End(
		obs.Int("eliminated_vars", d.ElimVars),
		obs.Int("subsumed", d.SubsumedClauses),
		obs.Int("strengthened", d.StrengthenedLits),
		obs.Int("vivified", d.VivifiedLits),
		obs.Int("fixed", d.FixedVars),
		obs.Bool("unsat", !ok))
	return ok
}
