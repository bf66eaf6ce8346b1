// Package count implements approximate (projected) model counting with
// random XOR hashing, in the style of ApproxMC. ObfusLock uses it to track
// the number of reachable patterns on a candidate cut when selecting the
// sub-circuit to encrypt.
package count

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"obfuslock/internal/aig"
	"obfuslock/internal/cnf"
	"obfuslock/internal/exec"
	"obfuslock/internal/obs"
	"obfuslock/internal/sat"
	"obfuslock/internal/simp"
)

// Options configures the counter.
type Options struct {
	// Pivot is the cell-size threshold; larger is more accurate and slower.
	Pivot int
	// Trials is the number of independent hashing rounds (median taken).
	Trials int
	// Budget bounds each individual solve (wall-clock side enforced via
	// the caller's context; the zero value is unlimited).
	Budget exec.Budget
	// Seed drives the random parity constraints.
	Seed int64
	// Trace receives a count.approx span with one count.trial event per
	// XOR hashing round. Nil disables tracing.
	Trace *obs.Tracer
}

// DefaultOptions balances accuracy and runtime for cut selection.
func DefaultOptions() Options {
	return Options{Pivot: 24, Trials: 5, Budget: exec.WithConflicts(500000), Seed: 1}
}

// Result is an approximate count.
type Result struct {
	// Log2Count estimates log2 of the model count (-Inf when zero).
	Log2Count float64
	// Exact is set when the count was fully enumerated (<= Pivot).
	Exact bool
	// Decided is false when solver budgets prevented an estimate.
	Decided bool
}

// problem captures one projected counting instance: a base encoding
// factory so every trial gets a fresh solver.
type problem struct {
	build func() (*sat.Solver, []sat.Lit) // returns solver + projection lits
}

// enumerateUpTo counts models over the projection literals, stopping at
// limit+1. Returns count and whether the solver stayed decisive.
func enumerateUpTo(s *sat.Solver, proj []sat.Lit, limit int) (int, bool) {
	count := 0
	for count <= limit {
		switch s.Solve() {
		case sat.Sat:
			count++
			block := make([]sat.Lit, len(proj))
			for i, l := range proj {
				if s.ModelValue(l) {
					block[i] = l.Not()
				} else {
					block[i] = l
				}
			}
			if !s.AddClause(block...) {
				return count, true
			}
		case sat.Unsat:
			return count, true
		default:
			return count, false
		}
	}
	return count, true
}

// approx runs the ApproxMC loop on one problem.
func approx(ctx context.Context, p problem, opt Options) Result {
	sp := opt.Trace.Span("count.approx",
		obs.Int("pivot", int64(opt.Pivot)), obs.Int("trials", int64(opt.Trials)))
	r := approxTraced(ctx, p, opt, sp)
	sp.End(obs.Float("log2_count", r.Log2Count),
		obs.Bool("exact", r.Exact), obs.Bool("decided", r.Decided))
	return r
}

func approxTraced(ctx context.Context, p problem, opt Options, sp *obs.Span) Result {
	rng := rand.New(rand.NewSource(opt.Seed))
	// Fast path: full enumeration below the pivot.
	s, proj := p.build()
	s.SetBudget(opt.Budget.ConflictCap())
	s.SetContext(ctx)
	freezeAndSimp(s, proj, opt.Trace)
	n, ok := enumerateUpTo(s, proj, opt.Pivot)
	if !ok {
		return Result{Decided: false}
	}
	if n == 0 {
		return Result{Log2Count: math.Inf(-1), Exact: true, Decided: true}
	}
	if n <= opt.Pivot {
		return Result{Log2Count: math.Log2(float64(n)), Exact: true, Decided: true}
	}
	nproj := 0
	{
		_, pr := p.build()
		nproj = len(pr)
	}
	var estimates []float64
	for trial := 0; trial < opt.Trials; trial++ {
		// Galloping search for the number of XORs that leaves <= pivot
		// models in the cell, then refine.
		lo, hi := 1, nproj
		found := -1
		cellAt := func(m int) (int, bool) {
			s, proj := p.build()
			s.SetBudget(opt.Budget.ConflictCap())
			s.SetContext(ctx)
			for x := 0; x < m; x++ {
				var lits []sat.Lit
				for _, l := range proj {
					if rng.Intn(2) == 0 {
						lits = append(lits, l)
					}
				}
				cnf.AddXorConstraint(s, lits, rng.Intn(2) == 0)
			}
			// Simplify after the parity constraints so the XOR chain
			// variables are eliminable too.
			freezeAndSimp(s, proj, opt.Trace)
			return enumerateUpTo(s, proj, opt.Pivot)
		}
		probes := 0
		lastCell := 0
		for lo <= hi {
			mid := (lo + hi) / 2
			c, ok := cellAt(mid)
			probes++
			lastCell = c
			if !ok {
				found = -2
				break
			}
			if c > opt.Pivot {
				lo = mid + 1
			} else if c == 0 {
				hi = mid - 1
			} else {
				found = mid
				estimates = append(estimates, math.Log2(float64(c))+float64(mid))
				break
			}
		}
		if sp.Enabled() {
			est := math.NaN()
			if n := len(estimates); n > 0 && found >= 0 {
				est = estimates[n-1]
			}
			sp.Event("count.trial",
				obs.Int("trial", int64(trial)),
				obs.Int("xors", int64(found)),
				obs.Int("probes", int64(probes)),
				obs.Int("cell", int64(lastCell)),
				obs.Float("estimate_log2", est))
		}
		if found == -2 {
			continue
		}
		if found == -1 && lo > nproj {
			// Even with nproj XORs the cell stayed large; count ~ 2^nproj.
			estimates = append(estimates, float64(nproj))
		}
	}
	if len(estimates) == 0 {
		return Result{Decided: false}
	}
	sort.Float64s(estimates)
	return Result{Log2Count: estimates[len(estimates)/2], Decided: true}
}

// freezeAndSimp pins the projection literals (the counter assumes,
// blocks and reads them after preprocessing — for ReachablePatterns
// they are internal cut nodes, not just inputs) and runs one
// simplification pass. An UNSAT outcome needs no special handling: the
// following enumeration just sees Unsat.
func freezeAndSimp(s *sat.Solver, proj []sat.Lit, tr *obs.Tracer) {
	for _, l := range proj {
		s.FreezeLit(l)
	}
	simp.Apply(s, true, tr)
}

// Models approximately counts satisfying input assignments of cond in g.
func Models(ctx context.Context, g *aig.AIG, cond aig.Lit, opt Options) Result {
	return approx(ctx, problem{build: func() (*sat.Solver, []sat.Lit) {
		s := sat.New()
		e := cnf.NewEncoder(g, s)
		ins := make([]sat.Lit, g.NumInputs())
		for i := range ins {
			ins[i] = e.InputLit(i)
		}
		root := e.Encode(cond)
		s.AddClause(root[0])
		return s, ins
	}}, opt)
}

// ReachablePatterns approximately counts the number of distinct value
// combinations the given cut literals can take over all inputs — the
// projected count used by ObfusLock's sub-circuit selection.
func ReachablePatterns(ctx context.Context, g *aig.AIG, cut []aig.Lit, opt Options) Result {
	return approx(ctx, problem{build: func() (*sat.Solver, []sat.Lit) {
		s := sat.New()
		e := cnf.NewEncoder(g, s)
		lits := e.Encode(cut...)
		return s, lits
	}}, opt)
}
