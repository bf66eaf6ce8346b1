// Package sample draws (approximately uniform) satisfying assignments —
// witnesses — of a condition literal in a circuit. Witness sampling powers
// the conditional-probability estimates inside Boolean multi-level
// splitting (the paper's skewness estimator, after Chakraborty et al.'s
// uniform witness generation).
//
// CubeSampler pins a random subset of inputs to random values and asks a
// SAT solver for a completion; it is fast and spreads samples well when
// the witness set is not too small. A Pool prepares each condition's
// solver once, gives every sampler its own copy, and keeps every witness
// set it has drawn, so that a repeated draw costs nothing.
package sample

import (
	"context"
	"math/bits"
	"math/rand"

	"obfuslock/internal/aig"
	"obfuslock/internal/cnf"
	"obfuslock/internal/sat"
	"obfuslock/internal/sim"
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
//
// A draw is fixed by the condition's cone, the seed and the count, so
// the pool memoizes the first draw of every sampler under (cond, seed,
// n) and serves a repeat from the memo; Accepted memoizes rejection
// sampling the same way. Memoized slices are shared between callers and
// are read-only.
type Pool struct {
	g    *aig.AIG
	cond aig.Lit
	base *sat.Solver
	ins  []sat.Lit
	// draws and accepted are the memos of Sample and Accepted.
	draws, accepted map[drawKey][][]bool
	// vec evaluates patterns 64 at a time.
	vec sim.Vectors
	// Samplers counts the solvers handed out, one per Sample call the
	// memo missed, and Builds the conditions prepared for them.
	// SampleHits and RejectionHits count the Sample and Accepted calls
	// served from the memo.
	Samplers, Builds, SampleHits, RejectionHits int
}

// drawKey names a draw: its condition, seed and count.
type drawKey struct {
	cond aig.Lit
	seed int64
	n    int
}

// NewPool returns an empty pool of witness solvers over g. The graph may
// grow while the pool is in use: a condition's cone never changes.
func NewPool(g *aig.AIG) *Pool {
	return &Pool{g: g, draws: map[drawKey][][]bool{}, accepted: map[drawKey][][]bool{}}
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
		simp.Apply(s, true, nil)
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
	seed int64
	// rng is seeded at the first draw the memo does not serve. When it
	// served the first, hit is set and hitN is that draw's count.
	rng  *rand.Rand
	hit  bool
	hitN int
	// Ctx, when non-nil, cancels in-flight solves; Sample then returns
	// the witnesses drawn so far, and the pool does not memoize them.
	Ctx context.Context
}

// Sampler returns a sampler of witnesses of cond in the pool's graph.
func (p *Pool) Sampler(cond aig.Lit, seed int64) *CubeSampler {
	return &CubeSampler{pool: p, cond: cond, seed: seed}
}

const (
	// pinFraction is the initial fraction of inputs pinned per attempt.
	pinFraction = 0.5
	// attempts bounds SAT calls per requested sample.
	attempts = 8
)

// Sample returns up to n witnesses; fewer (possibly zero) when the
// witness set is small or the budget runs out. A sampler's first draw
// comes from the pool's memo when an earlier sampler of the same
// condition and seed drew n; the result is then shared and read-only.
// Later draws continue the sampler's random sequence.
func (cs *CubeSampler) Sample(n int) [][]bool {
	switch {
	case cs.rng != nil:
		return cs.draw(n)
	case cs.hit:
		// Replay the memoized first draw to advance the sequence.
		cs.rng = rand.New(rand.NewSource(cs.seed))
		cs.draw(cs.hitN)
		return cs.draw(n)
	}
	p := cs.pool
	key := drawKey{cs.cond, cs.seed, n}
	if w, ok := p.draws[key]; ok {
		p.SampleHits++
		cs.hit, cs.hitN = true, n
		return w
	}
	cs.rng = rand.New(rand.NewSource(cs.seed))
	w := cs.draw(n)
	if cs.Ctx == nil || cs.Ctx.Err() == nil {
		p.draws[key] = w
	}
	return w
}

// draw samples up to n witnesses on a fresh copy of the prepared solver.
func (cs *CubeSampler) draw(n int) [][]bool {
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
	return s.pool.Fraction(target, wit), len(wit)
}

// Accepted rejection-samples cond: it draws uniform input patterns from
// seed's random sequence and keeps, in draw order, those on which cond
// holds, until it has want of them or has drawn want*8. It suits a
// common cond. Patterns are drawn and tested 64 at a time; a block may
// draw past the stopping point, which changes nothing kept. The result
// is memoized per (cond, seed, want) and read-only.
func (p *Pool) Accepted(cond aig.Lit, want int, seed int64) [][]bool {
	key := drawKey{cond, seed, want}
	if acc, ok := p.accepted[key]; ok {
		p.RejectionHits++
		return acc
	}
	m := p.g.NumInputs()
	block := make([][]bool, min(64, want*8))
	scratch := make([]bool, len(block)*m)
	for j := range block {
		block[j] = scratch[j*m : (j+1)*m]
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]bool, want*m)
	acc := make([][]bool, 0, want)
	for trials := 0; trials < want*8 && len(acc) < want; {
		blk := block[:min(len(block), want*8-trials)]
		for _, pat := range blk {
			for i := range pat {
				pat[i] = rng.Intn(2) == 1
			}
		}
		trials += len(blk)
		p.vec.RunPatterns(p.g, blk, m, nil)
		for j, pat := range blk {
			if len(acc) == want {
				break
			}
			if p.vec.Bit(cond, j) {
				row := out[len(acc)*m : (len(acc)+1)*m : (len(acc)+1)*m]
				copy(row, pat)
				acc = append(acc, row)
			}
		}
	}
	p.accepted[key] = acc
	return acc
}

// Fraction returns the fraction of pats on which target holds (NaN for
// no pattern), evaluating them 64 at a time.
func (p *Pool) Fraction(target aig.Lit, pats [][]bool) float64 {
	hits := 0
	for lo := 0; lo < len(pats); lo += 64 {
		blk := pats[lo:min(lo+64, len(pats))]
		p.vec.RunPatterns(p.g, blk, p.g.NumInputs(), nil)
		w := p.vec.Node(target.Var())[0]
		if target.IsCompl() {
			w = ^w
		}
		if len(blk) < 64 {
			w &= 1<<len(blk) - 1
		}
		hits += bits.OnesCount64(w)
	}
	return float64(hits) / float64(len(pats))
}
