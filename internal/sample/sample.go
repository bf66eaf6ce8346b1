// Package sample draws (approximately uniform) satisfying assignments —
// witnesses — of a condition literal in a circuit. Witness sampling powers
// the conditional-probability estimates inside Boolean multi-level
// splitting (the paper's skewness estimator, after Chakraborty et al.'s
// uniform witness generation).
//
// CubeSampler pins a random subset of inputs to random values and asks a
// SAT solver for a completion; it is fast and spreads samples well when
// the witness set is not too small. A Pool prepares each condition's
// solver once and gives every sampler its own copy.
package sample

import (
	"context"
	"math/rand"

	"obfuslock/internal/aig"
	"obfuslock/internal/cnf"
	"obfuslock/internal/sat"
	"obfuslock/internal/simp"
)

// Pool prepares the solver of a sampling condition once and hands every
// sampler of that condition a Clone of it, so that drawing witnesses no
// longer pays for encoding the condition's cone and preprocessing the
// CNF each time. A clone answers exactly as a freshly prepared solver
// would, so pooled samplers draw the same witnesses. A Pool belongs to
// one caller and is not safe for concurrent use. It keeps only the last
// condition's solver, which suits callers that draw many samplers of one
// condition in a row.
type Pool struct {
	g    *aig.AIG
	simp simp.Options
	cond aig.Lit
	base *sat.Solver
	ins  []sat.Lit
	// Samplers counts the solvers handed out, one per Sample call, and
	// Builds the conditions prepared for them.
	Samplers, Builds int
}

// NewPool returns an empty pool of witness solvers over g, preprocessed
// under so (zero value: enabled; simp.Off() disables). The graph may grow
// while the pool is in use: a condition's cone never changes.
func NewPool(g *aig.AIG, so simp.Options) *Pool {
	return &Pool{g: g, simp: so}
}

// conflictBudget bounds the conflicts of each Sample call's solver.
const conflictBudget = 200000

// solver returns a fresh copy of the prepared solver asserting cond, and
// the solver literals of g's inputs (shared; read only).
func (p *Pool) solver(cond aig.Lit) (*sat.Solver, []sat.Lit) {
	if p.base == nil || p.cond != cond {
		// The encoder freezes the inputs (the sampler assumes and reads
		// them), so preprocessing may eliminate anything internal.
		s := sat.New()
		e := cnf.NewEncoder(p.g, s)
		ins := make([]sat.Lit, p.g.NumInputs())
		for i := range ins {
			ins[i] = e.InputLit(i)
		}
		s.AddClause(e.Encode(cond)[0])
		s.SetBudget(conflictBudget)
		simp.Apply(s, p.simp, nil)
		p.base, p.cond, p.ins = s, cond, ins
		p.Builds++
	}
	p.Samplers++
	return p.base.Clone(), p.ins
}

// CubeSampler samples witnesses by pinning random input cubes.
type CubeSampler struct {
	pool *Pool
	cond aig.Lit
	rng  *rand.Rand
	// Ctx, when non-nil, cancels in-flight solves; Sample then returns
	// the witnesses drawn so far.
	Ctx context.Context
}

// Sampler returns a sampler of witnesses of cond in the pool's graph.
func (p *Pool) Sampler(cond aig.Lit, seed int64) *CubeSampler {
	return &CubeSampler{pool: p, cond: cond, rng: rand.New(rand.NewSource(seed))}
}

const (
	// pinFraction is the initial fraction of inputs pinned per attempt.
	pinFraction = 0.5
	// attempts bounds SAT calls per requested sample.
	attempts = 8
)

// Sample returns up to n witnesses; fewer (possibly zero) when the
// witness set is small or the budget runs out.
func (cs *CubeSampler) Sample(n int) [][]bool {
	s, ins := cs.pool.solver(cs.cond)
	s.SetContext(cs.Ctx)
	s.SetRandomPolarity(cs.rng.Int63())
	nin := len(ins)
	var out [][]bool
	pin := pinFraction
	for len(out) < n {
		got := false
		for attempt := 0; attempt < attempts; attempt++ {
			k := int(pin * float64(nin))
			perm := cs.rng.Perm(nin)[:k]
			assumps := make([]sat.Lit, 0, k)
			for _, i := range perm {
				l := ins[i]
				if cs.rng.Intn(2) == 0 {
					l = l.Not()
				}
				assumps = append(assumps, l)
			}
			switch s.Solve(assumps...) {
			case sat.Sat:
				w := make([]bool, nin)
				for i, l := range ins {
					w[i] = s.ModelValue(l)
				}
				out = append(out, w)
				got = true
			case sat.Unsat:
				// Cube too tight for this witness set; loosen.
				pin *= 0.7
			default:
				return out // budget exhausted
			}
			if got {
				break
			}
			if pin*float64(nin) < 1 {
				// Fully free and still failing means cond is UNSAT.
				if s.Solve() != sat.Sat {
					return out
				}
				w := make([]bool, nin)
				for i, l := range ins {
					w[i] = s.ModelValue(l)
				}
				out = append(out, w)
				got = true
				break
			}
		}
		if !got {
			break
		}
	}
	return out
}

// ConditionalProbability estimates P(target=1 | cond=1) by sampling
// witnesses of the sampler's condition and evaluating target on them. It
// returns the estimate and the number of witnesses used (0 when the
// condition appears unsatisfiable).
func ConditionalProbability(s *CubeSampler, target aig.Lit, n int) (float64, int) {
	wit := s.Sample(n)
	if len(wit) == 0 {
		return 0, 0
	}
	hits := 0
	for _, w := range wit {
		if s.pool.g.EvalLits(w, target)[0] {
			hits++
		}
	}
	return float64(hits) / float64(len(wit)), len(wit)
}
