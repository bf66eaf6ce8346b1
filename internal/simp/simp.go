// Package simp is the policy layer over the SAT solver's SatELite-style
// simplifier (internal/sat's Simplify): consumer packages embed an
// Options and call Apply before their first solve, or InprocessDue
// between incremental rounds, without each reimplementing the flag
// mapping and observability plumbing.
//
// The zero value of Options means simplification is ON with the default
// techniques — consumers gain preprocessing just by embedding the field.
// The negative flags (Disable, NoVarElim) exist so that the zero
// value stays the recommended configuration; Off() is the opt-out.
package simp

import (
	"obfuslock/internal/obs"
	"obfuslock/internal/sat"
)

// Options selects which simplification techniques run. The zero value
// enables everything.
type Options struct {
	// Disable turns simplification off entirely.
	Disable bool
	// NoVarElim keeps bounded variable elimination off, leaving only
	// the equivalence-preserving techniques (subsumption,
	// strengthening, vivification, top-level units). Required when a
	// caller later adds clauses over arbitrary internal variables it
	// did not freeze (fraig's rolling equivalence proofs, cec's
	// candidate scan).
	NoVarElim bool
}

// Default returns the recommended configuration: everything on.
func Default() Options { return Options{} }

// Off returns the opt-out configuration (the CLIs' -simp=false).
func Off() Options { return Options{Disable: true} }

// Enabled reports whether Apply would do anything.
func (o Options) Enabled() bool {
	return !o.Disable
}

// inprocessEvery is the InprocessDue cadence in incremental rounds. Its
// one caller is the DIP loop of internal/attacks, which so inprocesses
// every 16 DIPs.
const inprocessEvery = 16

// InprocessDue reports whether an inprocessing pass is due after the
// given 1-based incremental round: every inprocessEvery rounds while
// simplification is enabled.
func (o Options) InprocessDue(round int) bool {
	return o.Enabled() && round > 0 && round%inprocessEvery == 0
}

// Apply runs one simplification pass on the solver under a
// "sat.simplify" span whose end fields carry the pass's deltas. It
// returns false when simplification refutes the formula
// (like sat.Solver.Simplify); callers treat that exactly like an Unsat
// solve answer. A nil tracer costs nothing beyond the pass itself.
func Apply(s *sat.Solver, o Options, tr *obs.Tracer) bool {
	if !o.Enabled() {
		return true
	}
	sp := tr.Span("sat.simplify",
		obs.Int("vars", int64(s.NumVars())),
		obs.Int("clauses", int64(s.NumClauses())))
	before := s.SimpStats()
	ok := s.Simplify(!o.NoVarElim)
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
