// Package skew estimates signal probabilities and skewness values of AIG
// nodes. Skewness of a node p with on-set size h_p (taking the smaller of
// the on-set and off-set) is h_p / 2^m; we report it as "bits":
// -log2(h_p/2^m), so a 20-bit-skewed node is 1 (or 0) on a 2^-20 fraction
// of input patterns.
//
// Three estimators are provided, mirroring Section IV-B of the paper:
//
//   - Algebraic: gate-by-gate probability propagation assuming fanin
//     independence — fast, inaccurate under reconvergence; used to shortlist
//     candidate nodes.
//   - MonteCarlo: random simulation — accurate only down to a few bits of
//     skewness (sample-size bound O(1/eps^2)).
//   - Splitting: Boolean multi-level splitting — a rare event is factored
//     into a chain of common conditional events along a staged path, each
//     estimated from sampled witnesses; accurate for exponentially small
//     probabilities.
package skew

import (
	"math"
	"sort"

	"obfuslock/internal/aig"
	"obfuslock/internal/sample"
	"obfuslock/internal/sim"
)

// Bits converts a probability p of being 1 into bits of skewness:
// -log2(min(p, 1-p)). Returns +Inf for constants.
func Bits(p float64) float64 {
	h := math.Min(p, 1-p)
	if h <= 0 {
		return math.Inf(1)
	}
	return -math.Log2(h)
}

// Algebraic propagates signal probabilities through the graph assuming
// independent fanins. It returns P(node = 1) for every variable.
func Algebraic(g *aig.AIG) []float64 {
	p := make([]float64, g.MaxVar()+1)
	p[0] = 0 // constant false
	for i := 0; i < g.NumInputs(); i++ {
		p[g.InputVar(i)] = 0.5
	}
	lp := func(l aig.Lit) float64 {
		v := p[l.Var()]
		if l.IsCompl() {
			return 1 - v
		}
		return v
	}
	for v := uint32(1); v <= g.MaxVar(); v++ {
		fan := g.Fanins(v)
		switch g.Op(v) {
		case aig.OpAnd:
			p[v] = lp(fan[0]) * lp(fan[1])
		case aig.OpXor:
			a, b := lp(fan[0]), lp(fan[1])
			p[v] = a + b - 2*a*b
		case aig.OpMaj:
			a, b, c := lp(fan[0]), lp(fan[1]), lp(fan[2])
			p[v] = a*b + a*c + b*c - 2*a*b*c
		}
	}
	return p
}

// AlgebraicLit returns the algebraic probability of a literal being 1
// given precomputed node probabilities.
func AlgebraicLit(p []float64, l aig.Lit) float64 {
	v := p[l.Var()]
	if l.IsCompl() {
		return 1 - v
	}
	return v
}

// MonteCarlo estimates P(lit = 1) from words*64 random patterns.
func MonteCarlo(g *aig.AIG, lit aig.Lit, words int, seed int64) float64 {
	v := sim.RunRandom(g, words, seed)
	return v.OnesFraction(lit)
}

// SplittingOptions tunes the multi-level splitting estimator.
type SplittingOptions struct {
	// SamplesPerStage witnesses drawn per conditional estimate.
	SamplesPerStage int
	// Seed drives sampling.
	Seed int64
}

// DefaultSplittingOptions returns sane defaults.
func DefaultSplittingOptions() SplittingOptions {
	return SplittingOptions{
		SamplesPerStage: 160,
		Seed:            1,
	}
}

const (
	// mcWords of direct simulation estimate the first (common) stage.
	mcWords = 64
	// maxStageGap is the algebraic-skewness spacing between consecutive
	// stage nodes, in bits.
	maxStageGap = 4
)

// Stages selects the staged path p_1..p_n for the splitting estimator:
// a chain of nodes from shallow to deep ending at root, following the
// higher-level fanin at each step, thinned so that a node becomes the next
// stage once its algebraic skewness is maxStageGap bits above the last.
func Stages(g *aig.AIG, root aig.Lit) []aig.Lit {
	probs := Algebraic(g)
	lv, _ := g.Levels()
	// Walk from the root down the deeper fanin.
	var path []aig.Lit
	cur := root
	for {
		path = append(path, cur)
		v := cur.Var()
		op := g.Op(v)
		if op == aig.OpInput || op == aig.OpConst {
			break
		}
		fan := g.Fanins(v)
		best := fan[0]
		for _, f := range fan[1:] {
			if lv[f.Var()] > lv[best.Var()] {
				best = f
			}
		}
		// Track the phase that keeps each stage a "1-event" aligned with
		// its rare side: choose the fanin literal as stored.
		cur = best
	}
	// path is root..leaf; reverse to leaf..root.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	// Thin by algebraic skewness gap, always keeping the root.
	var stages []aig.Lit
	lastBits := 0.0
	for i, l := range path {
		b := Bits(AlgebraicLit(probs, l))
		if math.IsInf(b, 1) {
			continue // constant-looking node, not a useful stage
		}
		if len(stages) == 0 || b-lastBits >= maxStageGap || i == len(path)-1 {
			// Orient the stage literal toward its rare phase so each
			// conditional event is "stage = rare value".
			if AlgebraicLit(probs, l) > 0.5 {
				l = l.Not()
			}
			if len(stages) > 0 && i == len(path)-1 && stages[len(stages)-1] == l {
				continue
			}
			stages = append(stages, l)
			lastBits = Bits(AlgebraicLit(probs, l))
		}
	}
	if len(stages) == 0 {
		stages = []aig.Lit{root}
	}
	// The last stage must be the root, rare-phase oriented consistently
	// with the caller's literal: force exact root literal at the end.
	if stages[len(stages)-1].Var() != root.Var() {
		stages = append(stages, root)
	} else {
		stages[len(stages)-1] = root
	}
	return stages
}

// Splitting estimates P(root = 1) by Boolean multi-level splitting over
// the given stages (pass nil to derive stages automatically). It returns
// the probability estimate; combine with Bits for bit-skewness.
func Splitting(g *aig.AIG, root aig.Lit, stages []aig.Lit, opt SplittingOptions) float64 {
	if len(stages) == 0 {
		stages = Stages(g, root)
	}
	if stages[len(stages)-1] != root {
		stages = append(stages, root)
	}
	// Stage 1: direct Monte Carlo (the first stage is a common event).
	sk := MonteCarlo(g, stages[0], mcWords, opt.Seed)
	if len(stages) == 1 {
		return sk
	}
	pool := sample.NewPool(g)
	for i := 1; i < len(stages); i++ {
		prev, cur := stages[i-1], stages[i]
		// P(cur | prev): sample witnesses of prev.
		sPos := pool.Sampler(prev, opt.Seed+int64(i)*7919)
		pGivenPrev, n1 := sample.ConditionalProbability(sPos, cur, opt.SamplesPerStage)
		if n1 == 0 {
			// prev unsatisfiable: the whole chain has probability 0 along
			// this path; fall back to direct MC of the root.
			return MonteCarlo(g, root, mcWords, opt.Seed+999)
		}
		if pGivenPrev == 0 {
			// The stage gap was wider than planned; try harder before
			// flooring at the rule-of-three bound (a hard zero would make
			// every later stage meaningless).
			sRetry := pool.Sampler(prev, opt.Seed+int64(i)*7919+1)
			p2, n2 := sample.ConditionalProbability(sRetry, cur, 4*opt.SamplesPerStage)
			if n2 > 0 && p2 > 0 {
				pGivenPrev = p2
			} else {
				pGivenPrev = 1 / float64(2*(n1+n2)+2)
			}
		}
		// P(cur | !prev): witnesses of the complement (a common event when
		// prev is rare, so Monte Carlo would also do; sampling keeps the
		// estimator uniform in structure).
		sNeg := pool.Sampler(prev.Not(), opt.Seed+int64(i)*104729)
		pGivenNotPrev, n0 := sample.ConditionalProbability(sNeg, cur, opt.SamplesPerStage)
		if n0 == 0 {
			pGivenNotPrev = 0
		}
		sk = pGivenPrev*sk + pGivenNotPrev*(1-sk)
	}
	return sk
}

// SplittingBits is a convenience wrapper returning bits of skewness of the
// root literal's ON probability: -log2(P(root=1)) when P<0.5.
func SplittingBits(g *aig.AIG, root aig.Lit, opt SplittingOptions) float64 {
	return Bits(Splitting(g, root, nil, opt))
}

// NodeSkewness computes per-node skewness bits from random simulation —
// the statistic plotted in Fig. 4(a)/(c) of the paper. Nodes that are
// constant under simulation get +Inf.
func NodeSkewness(g *aig.AIG, words int, seed int64) []float64 {
	v := sim.RunRandom(g, words, seed)
	out := make([]float64, g.MaxVar()+1)
	for n := uint32(0); n <= g.MaxVar(); n++ {
		out[n] = Bits(v.OnesFraction(aig.MkLit(n, false)))
	}
	return out
}

// TopSkewedNodes returns up to k node literals with the highest algebraic
// skewness (rarest phase), excluding constants, inputs and nodes whose
// support is smaller than minSupport.
func TopSkewedNodes(g *aig.AIG, k int, minSupport int) []aig.Lit {
	probs := Algebraic(g)
	type cand struct {
		lit  aig.Lit
		bits float64
	}
	var cands []cand
	for v := uint32(1); v <= g.MaxVar(); v++ {
		op := g.Op(v)
		if op == aig.OpInput || op == aig.OpConst {
			continue
		}
		l := aig.MkLit(v, false)
		if probs[v] > 0.5 {
			l = l.Not()
		}
		b := Bits(probs[v])
		if math.IsInf(b, 1) {
			continue
		}
		if minSupport > 1 && len(g.Support(l)) < minSupport {
			continue
		}
		cands = append(cands, cand{l, b})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].bits > cands[j].bits })
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]aig.Lit, len(cands))
	for i, c := range cands {
		out[i] = c.lit
	}
	return out
}
