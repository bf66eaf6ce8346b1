// Package sample draws (approximately uniform) satisfying assignments —
// witnesses — of a condition literal in a circuit. Witness sampling powers
// the conditional-probability estimates inside Boolean multi-level
// splitting (the paper's skewness estimator, after Chakraborty et al.'s
// uniform witness generation).
//
// CubeSampler pins a random subset of inputs to random values and asks a
// SAT solver for a completion; it is fast and spreads samples well when
// the witness set is not too small.
package sample

import (
	"context"
	"math/rand"

	"obfuslock/internal/aig"
	"obfuslock/internal/cnf"
	"obfuslock/internal/exec"
	"obfuslock/internal/obs"
	"obfuslock/internal/sat"
	"obfuslock/internal/simp"
)

// CubeSampler samples witnesses by pinning random input cubes.
type CubeSampler struct {
	g    *aig.AIG
	cond aig.Lit
	rng  *rand.Rand
	// Budget bounds each solver call (zero value: unlimited).
	Budget exec.Budget
	// Ctx, when non-nil, cancels in-flight solves; Sample then returns
	// the witnesses drawn so far.
	Ctx context.Context
	// Simp controls CNF preprocessing of each Sample call's solver
	// (zero value: enabled; simp.Off() disables).
	Simp simp.Options
	// Trace receives one sample.cube event per Sample call. Nil disables.
	Trace *obs.Tracer
}

// NewCubeSampler returns a sampler of witnesses of cond in g.
func NewCubeSampler(g *aig.AIG, cond aig.Lit, seed int64) *CubeSampler {
	return &CubeSampler{
		g:      g,
		cond:   cond,
		rng:    rand.New(rand.NewSource(seed)),
		Budget: exec.WithConflicts(200000),
	}
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
	out := cs.sample(n)
	if cs.Trace.Enabled() {
		cs.Trace.Event("sample.cube",
			obs.Int("requested", int64(n)), obs.Int("got", int64(len(out))))
	}
	return out
}

func (cs *CubeSampler) sample(n int) [][]bool {
	// A solver asserting cond over the inputs. The encoder freezes the
	// inputs (the sampler assumes and reads them), so preprocessing may
	// eliminate anything internal.
	s := sat.New()
	e := cnf.NewEncoder(cs.g, s)
	ins := make([]sat.Lit, cs.g.NumInputs())
	for i := range ins {
		ins[i] = e.InputLit(i)
	}
	s.AddClause(e.Encode(cs.cond)[0])
	s.SetBudget(cs.Budget.ConflictCap())
	s.SetContext(cs.Ctx)
	simp.Apply(s, cs.Simp, cs.Trace)
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
// witnesses of cond and evaluating target on them. It returns the estimate
// and the number of witnesses used (0 when cond appears unsatisfiable).
func ConditionalProbability(g *aig.AIG, target, cond aig.Lit, s *CubeSampler, n int) (float64, int) {
	wit := s.Sample(n)
	if len(wit) == 0 {
		return 0, 0
	}
	probe := g.Copy()
	probe.AddOutput(target, "target")
	hits := 0
	idx := probe.NumOutputs() - 1
	for _, w := range wit {
		if probe.Eval(w)[idx] {
			hits++
		}
	}
	return float64(hits) / float64(len(wit)), len(wit)
}
