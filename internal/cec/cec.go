// Package cec implements SAT-based combinational equivalence checking with
// a random-simulation pre-filter, plus node-level equivalence queries used
// by the structural attacks and the critical-node elimination check. The
// sweeping mode (Options.Sweep) fraigs the combined miter graph — merging
// the internally equivalent logic the two sides share — before the final,
// much smaller, miter solve. Pinned checks many constant-pinned variants
// of one implementation against one such base, rebuilding only each
// variant's fanout cone.
package cec

import (
	"context"
	"fmt"
	"time"

	"obfuslock/internal/aig"
	"obfuslock/internal/cnf"
	"obfuslock/internal/exec"
	"obfuslock/internal/fraig"
	"obfuslock/internal/obs"
	"obfuslock/internal/sat"
	"obfuslock/internal/sim"
	"obfuslock/internal/simp"
)

// Result reports the outcome of an equivalence check.
type Result struct {
	Equivalent bool
	// Counterexample is an input pattern on which the circuits differ
	// (valid only when Equivalent is false and Decided is true).
	Counterexample []bool
	// Decided is false when the solver hit its budget.
	Decided bool
	// Runtime of the check.
	Runtime time.Duration
	// SolverStats accumulates the SAT work of the check (in sweeping
	// mode: the sweep's prover plus the final miter solver).
	SolverStats sat.Stats
}

// Options configures a check.
type Options struct {
	// SimWords of 64 random patterns tried before SAT (0 disables).
	SimWords int
	// Seed for the simulation pre-filter and the sweeping signatures.
	Seed int64
	// Budget bounds the SAT effort (zero value: unlimited). In sweeping
	// mode the conflict cap applies per sweep query and to the final
	// miter solve.
	Budget exec.Budget
	// Sweep enables SAT sweeping: the two circuits are combined over
	// shared inputs, fraiged (internal/fraig), and only output pairs the
	// sweep could not merge go to the final miter solve.
	Sweep bool
	// Trace receives cec.check / cec.find_node spans and the sweep's
	// instrumentation (nil: disabled).
	Trace *obs.Tracer
}

// DefaultOptions uses a small simulation pre-filter and no SAT budget.
func DefaultOptions() Options {
	return Options{SimWords: 4, Seed: 1}
}

// SweepOptions is DefaultOptions with SAT sweeping enabled.
func SweepOptions() Options {
	opt := DefaultOptions()
	opt.Sweep = true
	return opt
}

// Check decides whether two circuits with identical interfaces are
// functionally equivalent. Cancelling ctx (or exhausting the budget)
// yields an undecided result.
func Check(ctx context.Context, a, b *aig.AIG, opt Options) (Result, error) {
	start := time.Now()
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return Result{}, fmt.Errorf("cec: interface mismatch: %d/%d inputs, %d/%d outputs",
			a.NumInputs(), b.NumInputs(), a.NumOutputs(), b.NumOutputs())
	}
	sp := opt.Trace.Span("cec.check",
		obs.Int("nodes_a", int64(a.NumNodes())),
		obs.Int("nodes_b", int64(b.NumNodes())),
		obs.Bool("sweep", opt.Sweep))
	r, err := check(ctx, a, b, opt, sp)
	r.Runtime = time.Since(start)
	sp.End(
		obs.Bool("equivalent", r.Equivalent),
		obs.Bool("decided", r.Decided))
	return r, err
}

func check(ctx context.Context, a, b *aig.AIG, opt Options, sp *obs.Span) (Result, error) {
	// Simulation pre-filter: a single differing pattern refutes quickly.
	if opt.SimWords > 0 && a.NumInputs() > 0 {
		in := sim.RandomInputs(a.NumInputs(), opt.SimWords, opt.Seed)
		va := sim.Run(a, in)
		vb := sim.Run(b, in)
		for o := 0; o < a.NumOutputs(); o++ {
			wa, wb := va.Output(o), vb.Output(o)
			for w := range wa {
				if d := wa[w] ^ wb[w]; d != 0 {
					idx := w * 64
					for bit := 0; bit < 64; bit++ {
						if d>>uint(bit)&1 == 1 {
							idx += bit
							break
						}
					}
					sp.Event("cec.sim_refuted", obs.Int("output", int64(o)))
					return Result{
						Equivalent:     false,
						Counterexample: sim.Pattern(in, idx),
						Decided:        true,
					}, nil
				}
			}
		}
	}
	if opt.Sweep {
		return checkSwept(ctx, a, b, opt, sp)
	}
	s := sat.New()
	s.SetBudget(opt.Budget.ConflictCap())
	s.SetContext(ctx)
	inputs, diff := cnf.Miter(s, a, b)
	s.AddClause(diff)
	// Preprocess the whole miter CNF: the shared-input interface is
	// frozen by the encoder, everything internal may be eliminated.
	if !simp.Apply(s, true, opt.Trace) {
		return Result{Equivalent: true, Decided: true, SolverStats: s.Stats()}, nil
	}
	switch s.Solve() {
	case sat.Unsat:
		return Result{Equivalent: true, Decided: true, SolverStats: s.Stats()}, nil
	case sat.Sat:
		cex := make([]bool, len(inputs))
		for i, l := range inputs {
			cex[i] = s.ModelValue(l)
		}
		return Result{Equivalent: false, Counterexample: cex, Decided: true, SolverStats: s.Stats()}, nil
	}
	return Result{SolverStats: s.Stats()}, nil
}

// checkSwept fraigs the combined graph of a and b over shared inputs; if
// the sweep merges every output pair the circuits are proven equivalent
// without a miter at all, otherwise only the surviving pairs feed a final
// (reduced) miter solve.
func checkSwept(ctx context.Context, a, b *aig.AIG, opt Options, sp *obs.Span) (Result, error) {
	comb := aig.New()
	piMap := make([]aig.Lit, a.NumInputs())
	for i := range piMap {
		piMap[i] = comb.AddInput(a.InputName(i))
	}
	oa := comb.Import(a, piMap)
	ob := comb.Import(b, piMap)
	for i, o := range oa {
		comb.AddOutput(o, "a:"+a.OutputName(i))
	}
	for i, o := range ob {
		comb.AddOutput(o, "b:"+b.OutputName(i))
	}
	fr := fraig.Sweep(ctx, comb, fraig.Options{
		Seed:   opt.Seed,
		Budget: opt.Budget,
		Trace:  opt.Trace,
	})
	red := fr.Reduced
	n := a.NumOutputs()
	var pending [][2]aig.Lit
	for i := 0; i < n; i++ {
		la, lb := red.Output(i), red.Output(n+i)
		if la != lb {
			pending = append(pending, [2]aig.Lit{la, lb})
		}
	}
	sp.Event("cec.swept",
		obs.Int("nodes", int64(red.NumNodes())),
		obs.Int("merges", int64(fr.Stats.Merges)),
		obs.Int("pending_outputs", int64(len(pending))))
	if len(pending) == 0 {
		// Every output pair merged: equivalence is proven, regardless of
		// whether unrelated internal candidates ran out of budget.
		return Result{Equivalent: true, Decided: true, SolverStats: fr.SolverStats}, nil
	}
	r := solvePairs(ctx, red, pending, opt)
	r.SolverStats = r.SolverStats.Add(fr.SolverStats)
	return r, nil
}

// solvePairs decides whether every literal pair of g computes the same
// function with one miter solve under opt.Budget.
func solvePairs(ctx context.Context, g *aig.AIG, pairs [][2]aig.Lit, opt Options) Result {
	s := sat.New()
	s.SetBudget(opt.Budget.ConflictCap())
	s.SetContext(ctx)
	e := cnf.NewEncoder(g, s)
	inputs := make([]sat.Lit, g.NumInputs())
	for i := range inputs {
		inputs[i] = e.InputLit(i)
	}
	diffs := make([]sat.Lit, len(pairs))
	for i, p := range pairs {
		lits := e.Encode(p[0], p[1])
		diffs[i] = cnf.XorLit(s, lits[0], lits[1])
	}
	s.AddClause(cnf.OrLit(s, diffs...))
	// The miter is a one-shot solve: full preprocessing (elimination
	// included) is sound here.
	if !simp.Apply(s, true, opt.Trace) {
		return Result{Equivalent: true, Decided: true, SolverStats: s.Stats()}
	}
	switch s.Solve() {
	case sat.Unsat:
		return Result{Equivalent: true, Decided: true, SolverStats: s.Stats()}
	case sat.Sat:
		cex := make([]bool, len(inputs))
		for i, l := range inputs {
			cex[i] = s.ModelValue(l)
		}
		return Result{Equivalent: false, Counterexample: cex, Decided: true, SolverStats: s.Stats()}
	}
	return Result{SolverStats: s.Stats()}
}

// FindOptions configures FindNode.
type FindOptions struct {
	// SimWords of 64 random patterns build the signature shortlist (0: 8).
	SimWords int
	// Seed for the shortlist patterns and the swept proofs.
	Seed int64
	// Budget caps every SAT query of the scan: a candidate's quick query
	// (which never gets more than quickConflicts) and each query of its
	// swept proof. A candidate whose proof exhausts it leaves the scan
	// Undecided.
	Budget exec.Budget
	// Trace receives the cec.find_node span (nil: disabled).
	Trace *obs.Tracer
}

// DefaultFindOptions matches the paper's elimination check: 512 patterns
// and a 100k-conflict cap per query.
func DefaultFindOptions() FindOptions {
	return FindOptions{SimWords: 8, Seed: 1, Budget: exec.WithConflicts(100000)}
}

// FindVerdict is the outcome of a node search.
type FindVerdict uint8

const (
	// Undecided: some candidate's proof ran out of budget (or the context
	// was cancelled) and no other candidate was proven equivalent.
	Undecided FindVerdict = iota
	// Found: a node was proven equivalent to the spec.
	Found
	// Refuted: every node of the graph, in both phases, was proven to
	// differ from the spec.
	Refuted
)

// String names the verdict as the cec.find_node span records it.
func (v FindVerdict) String() string {
	switch v {
	case Found:
		return "found"
	case Refuted:
		return "refuted"
	}
	return "undecided"
}

// quickConflicts caps a candidate's first query on the shared solver. A
// plain query on a candidate that differs, or that shares the spec's
// structure, answers well within it; a candidate it cannot settle goes to
// the swept proof, which handles restructured equivalent cones far
// better than a monolithic miter.
const quickConflicts = 2000

// ConeGraph returns a graph over all of src's inputs with the function of
// root as its single output.
func ConeGraph(src *aig.AIG, root aig.Lit) *aig.AIG {
	g := aig.New()
	pis := make([]aig.Lit, src.NumInputs())
	for i := range pis {
		pis[i] = g.AddInput(src.InputName(i))
	}
	g.AddOutput(g.ImportCone(src, pis, []aig.Lit{root})[0], "f")
	return g
}

// FindNode searches g for a node (in either phase) functionally
// equivalent to the function computed by literal spec in graph specG, where
// both graphs share the same primary-input ordering. It returns the
// matching literal in g with Found, Refuted when no node matches, or
// Undecided when the budget could not settle some candidate.
//
// This implements the attacker's "does the critical node still exist?"
// query from the paper's structural-security evaluation. Simulation
// signatures shortlist candidates. Each candidate first gets a cheap query
// on one shared incremental solver; one it leaves open is proven by a
// swept check (Options.Sweep) of its cone against the spec's cone. Every
// counterexample, from either stage, prunes the rest of the shortlist.
func FindNode(ctx context.Context, g *aig.AIG, specG *aig.AIG, spec aig.Lit, opt FindOptions) (aig.Lit, FindVerdict) {
	if g.NumInputs() != specG.NumInputs() {
		panic("cec: FindNode input mismatch")
	}
	if opt.SimWords <= 0 {
		opt.SimWords = 8
	}
	sp := opt.Trace.Span("cec.find_node",
		obs.Int("nodes", int64(g.NumNodes())))
	queries, proofs := 0, 0
	end := func(lit aig.Lit, v FindVerdict) (aig.Lit, FindVerdict) {
		sp.End(obs.Bool("found", v == Found), obs.Int("sat_queries", int64(queries)),
			obs.Int("swept_proofs", int64(proofs)), obs.Str("verdict", v.String()))
		return lit, v
	}

	// Combined graph for SAT confirmation: import specG into a copy of g.
	// Structural hashing may land the spec cone directly on a node of g.
	comb := g.Copy()
	specIn := comb.ImportCone(specG, comb.Inputs(), []aig.Lit{spec})[0]
	if v := specIn.Var(); v >= 1 && v <= g.MaxVar() {
		return end(specIn, Found)
	}

	// Signature-bucketed shortlist: candidates whose simulated words match
	// the spec's, in ascending variable order.
	vec := sim.RunRandom(comb, opt.SimWords, exec.DeriveSeed(opt.Seed, 0))
	specWords := vec.Lit(specIn)
	var queue []aig.Lit
	for v := uint32(1); v <= g.MaxVar(); v++ {
		for _, ph := range []bool{false, true} {
			cand := aig.MkLit(v, ph)
			cw := vec.Node(v)
			match := true
			for w := range cw {
				x := cw[w]
				if ph {
					x = ^x
				}
				if x != specWords[w] {
					match = false
					break
				}
			}
			if match {
				queue = append(queue, cand)
			}
		}
	}
	sp.Event("cec.shortlist", obs.Int("candidates", int64(len(queue))))

	// prune replays a counterexample on the remaining shortlist and keeps
	// the candidates that agree with the spec on it.
	prune := func(pattern []bool) {
		lits := make([]aig.Lit, 0, len(queue)+1)
		lits = append(lits, queue...)
		lits = append(lits, specIn)
		vals := comb.EvalLits(pattern, lits...)
		specV := vals[len(vals)-1]
		kept := queue[:0]
		for i, q := range queue {
			if vals[i] == specV {
				kept = append(kept, q)
			}
		}
		queue = kept
	}

	// One incremental solver for every quick query; learnt clauses carry
	// over between candidates.
	s := sat.New()
	s.SetContext(ctx)
	e := cnf.NewEncoder(comb, s)
	for i := 0; i < comb.NumInputs(); i++ {
		e.InputLit(i) // pre-create solver variables for cex extraction
	}
	lspec := e.Encode(specIn)[0]
	// Preprocess without variable elimination: the scan keeps encoding
	// new cones against already-encoded internal variables.
	simp.Apply(s, false, opt.Trace)
	quick := opt.Budget.ConflictCap()
	if quick < 0 || quick > quickConflicts {
		quick = quickConflicts
	}
	popt := Options{Seed: opt.Seed, Budget: opt.Budget, Sweep: true, Trace: opt.Trace}
	var specCone *aig.AIG
	undecided := false
	for len(queue) > 0 {
		if ctx != nil && ctx.Err() != nil {
			return end(0, Undecided)
		}
		cand := queue[0]
		queue = queue[1:]
		lc := e.Encode(cand)[0]
		d := cnf.XorLit(s, lc, lspec)
		s.SetBudget(quick)
		queries++
		switch s.Solve(d) {
		case sat.Unsat:
			return end(cand, Found)
		case sat.Sat:
			pattern := make([]bool, comb.NumInputs())
			for i := range pattern {
				pattern[i] = s.ModelValue(e.InputLit(i))
			}
			prune(pattern)
			continue
		}
		// The quick query was inconclusive: prove the candidate's cone
		// against the spec's with the swept engine.
		if specCone == nil {
			specCone = ConeGraph(specG, spec)
		}
		proofs++
		r, err := Check(ctx, ConeGraph(g, cand), specCone, popt)
		switch {
		case err != nil || !r.Decided:
			undecided = true
		case r.Equivalent:
			return end(cand, Found)
		default:
			prune(r.Counterexample)
		}
	}
	if undecided {
		return end(0, Undecided)
	}
	return end(0, Refuted)
}
