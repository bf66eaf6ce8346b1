// Package sample draws (approximately uniform) satisfying assignments —
// witnesses — of a condition literal in a circuit. Witness sampling powers
// the conditional-probability estimates inside Boolean multi-level
// splitting (the paper's skewness estimator, after Chakraborty et al.'s
// uniform witness generation).
//
// Two samplers are provided:
//
//   - CubeSampler pins a random subset of inputs to random values and asks a
//     SAT solver for a completion; it is fast and spreads samples well when
//     the witness set is not too small.
//   - XorSampler partitions the witness space into cells with random XOR
//     (parity) constraints over the inputs and enumerates a small random
//     cell, giving near-uniform samples at higher cost (UniGen-style).
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

// Sampler draws input patterns on which cond evaluates true.
type Sampler interface {
	// Sample returns up to n witnesses; fewer (possibly zero) when the
	// witness set is small or the budget runs out.
	Sample(n int) [][]bool
}

// prepare builds a solver asserting cond over the inputs of g and returns
// the solver together with the input literals. The inputs are frozen by
// the encoder (the samplers assume, block and read them), so the
// requested preprocessing may eliminate anything internal.
func prepare(ctx context.Context, g *aig.AIG, cond aig.Lit, budget exec.Budget, so simp.Options, tr *obs.Tracer) (*sat.Solver, []sat.Lit) {
	s := sat.New()
	e := cnf.NewEncoder(g, s)
	ins := make([]sat.Lit, g.NumInputs())
	for i := range ins {
		ins[i] = e.InputLit(i)
	}
	root := e.Encode(cond)
	s.AddClause(root[0])
	s.SetBudget(budget.ConflictCap())
	s.SetContext(ctx)
	simp.Apply(s, so, tr)
	return s, ins
}

// CubeSampler samples witnesses by pinning random input cubes.
type CubeSampler struct {
	g    *aig.AIG
	cond aig.Lit
	rng  *rand.Rand
	// PinFraction is the initial fraction of inputs pinned per attempt.
	PinFraction float64
	// Attempts bounds SAT calls per requested sample.
	Attempts int
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
		g:           g,
		cond:        cond,
		rng:         rand.New(rand.NewSource(seed)),
		PinFraction: 0.5,
		Attempts:    8,
		Budget:      exec.WithConflicts(200000),
	}
}

// Sample implements Sampler.
func (cs *CubeSampler) Sample(n int) [][]bool {
	out := cs.sample(n)
	if cs.Trace.Enabled() {
		cs.Trace.Event("sample.cube",
			obs.Int("requested", int64(n)), obs.Int("got", int64(len(out))))
	}
	return out
}

func (cs *CubeSampler) sample(n int) [][]bool {
	s, ins := prepare(cs.Ctx, cs.g, cs.cond, cs.Budget, cs.Simp, cs.Trace)
	s.SetRandomPolarity(cs.rng.Int63())
	nin := len(ins)
	var out [][]bool
	pin := cs.PinFraction
	for len(out) < n {
		got := false
		for attempt := 0; attempt < cs.Attempts; attempt++ {
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

// XorSampler samples witnesses with random parity cells.
type XorSampler struct {
	g    *aig.AIG
	cond aig.Lit
	rng  *rand.Rand
	// CellTarget is the desired number of witnesses per random cell.
	CellTarget int
	// Budget bounds each solver (zero value: unlimited).
	Budget exec.Budget
	// Ctx, when non-nil, cancels in-flight solves; Sample then returns
	// the witnesses drawn so far.
	Ctx context.Context
	// Simp controls CNF preprocessing of each cell's solver (zero
	// value: enabled; simp.Off() disables).
	Simp simp.Options
	// Trace receives one sample.cell event per enumerated XOR cell. Nil
	// disables.
	Trace *obs.Tracer
}

// NewXorSampler returns a UniGen-style sampler of witnesses of cond in g.
func NewXorSampler(g *aig.AIG, cond aig.Lit, seed int64) *XorSampler {
	return &XorSampler{
		g:          g,
		cond:       cond,
		rng:        rand.New(rand.NewSource(seed)),
		CellTarget: 8,
		Budget:     exec.WithConflicts(500000),
	}
}

// enumerateCell lists up to limit witnesses of cond subject to nXor random
// parity constraints over the inputs.
func (xs *XorSampler) enumerateCell(nXor, limit int) [][]bool {
	// Preprocessing runs inside prepare, before the parity constraints:
	// the XOR chains land on a reduced base encoding either way, and the
	// per-cell solver stays cheap to set up.
	s, ins := prepare(xs.Ctx, xs.g, xs.cond, xs.Budget, xs.Simp, xs.Trace)
	s.SetRandomPolarity(xs.rng.Int63())
	for x := 0; x < nXor; x++ {
		var lits []sat.Lit
		for _, l := range ins {
			if xs.rng.Intn(2) == 0 {
				lits = append(lits, l)
			}
		}
		cnf.AddXorConstraint(s, lits, xs.rng.Intn(2) == 0)
	}
	var cell [][]bool
	for len(cell) < limit {
		if s.Solve() != sat.Sat {
			break
		}
		w := make([]bool, len(ins))
		block := make([]sat.Lit, len(ins))
		for i, l := range ins {
			w[i] = s.ModelValue(l)
			if w[i] {
				block[i] = l.Not()
			} else {
				block[i] = l
			}
		}
		cell = append(cell, w)
		if !s.AddClause(block...) {
			break
		}
	}
	if xs.Trace.Enabled() {
		xs.Trace.Event("sample.cell",
			obs.Int("xors", int64(nXor)), obs.Int("size", int64(len(cell))))
	}
	return cell
}

// Sample implements Sampler: it searches for a parity-cell size yielding
// small cells, then draws random members from fresh cells.
func (xs *XorSampler) Sample(n int) [][]bool {
	nin := xs.g.NumInputs()
	// Find a cell dimension where cells hold <= 2*CellTarget witnesses.
	nXor := 0
	cell := xs.enumerateCell(0, 2*xs.CellTarget+1)
	if len(cell) == 0 {
		return nil
	}
	for len(cell) > 2*xs.CellTarget && nXor < nin {
		nXor++
		cell = xs.enumerateCell(nXor, 2*xs.CellTarget+1)
	}
	var out [][]bool
	stale := 0
	for len(out) < n && stale < 8 {
		if len(cell) == 0 {
			stale++
		} else {
			stale = 0
			// Draw without replacement from this cell.
			xs.rng.Shuffle(len(cell), func(i, j int) { cell[i], cell[j] = cell[j], cell[i] })
			take := len(cell)
			if take > n-len(out) {
				take = n - len(out)
			}
			out = append(out, cell[:take]...)
		}
		if len(out) < n {
			cell = xs.enumerateCell(nXor, 2*xs.CellTarget+1)
		}
	}
	return out
}

// ConditionalProbability estimates P(target=1 | cond=1) by sampling
// witnesses of cond and evaluating target on them. It returns the estimate
// and the number of witnesses used (0 when cond appears unsatisfiable).
func ConditionalProbability(g *aig.AIG, target, cond aig.Lit, s Sampler, n int) (float64, int) {
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
