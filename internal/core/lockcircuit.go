package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"obfuslock/internal/aig"
	"obfuslock/internal/obs"
	"obfuslock/internal/sample"
	"obfuslock/internal/skew"
)

// lockingCircuit is the highly skewed single-output circuit L built from
// nodes of the original circuit (Section IV-C of the paper).
type lockingCircuit struct {
	// Root literal of L inside the working graph.
	Root aig.Lit
	// Stages records the accepted chain prefixes, used as splitting stages.
	Stages []aig.Lit
	// SkewBits is the verified skewness of the root.
	SkewBits float64
	// Support is the PI positions feeding L.
	Support []int
	// Attachments counts accepted operator attachments.
	Attachments int
}

// Tuning of the incremental construction of L.
const (
	// maxCandidates bounds the pool of skewed candidate nodes.
	maxCandidates = 48
	// gainBits is the initial required skewness gain per attachment;
	// gainDecay shrinks it after a failed attachment round.
	gainBits  = 2.5
	gainDecay = 0.7
	// triesPerLevel attachment attempts before decaying the gain level.
	triesPerLevel = 6
	// quickSamples / refineSamples for conditional probability estimates.
	quickSamples  = 60
	refineSamples = 200
	// supportMargin is the minimum excess of L's support over its
	// skewness, in bits. The attack needs ~2^skew queries to hit L's
	// on-set but only 2^(support-skew) keys survive afterwards, so both
	// exponents must clear the attacker's budget.
	supportMargin = 8
)

// buildOptions configures one construction of L.
type buildOptions struct {
	TargetBits float64
	Seed       int64
	// Span, when non-nil, receives per-attachment gain events.
	Span *obs.Span
}

// condProb estimates P(target=1 | cond) with n witnesses of cond; false
// when cond yields no witness.
func condProb(pool *sample.Pool, target, cond aig.Lit, n int, seed int64) (float64, bool) {
	p, got := sample.ConditionalProbability(pool.Sampler(cond, seed), target, n)
	return p, got > 0
}

// buildLockingCircuit incrementally constructs L inside work (a private
// copy of the original circuit). Each iteration tentatively attaches an
// operator over candidate nodes to the head of the chain, estimates the
// skewness gain by conditional sampling (Boolean multi-level splitting
// along the chain prefixes), and accepts the attachment when the gain
// clears the current level; otherwise the level decays. Every witness
// sampler comes from samplers, a pool over work owned by this call.
func buildLockingCircuit(work *aig.AIG, samplers *sample.Pool, opt buildOptions) (*lockingCircuit, error) {
	m := work.NumInputs()
	if float64(m) < opt.TargetBits {
		return nil, fmt.Errorf("core: circuit has %d inputs, fewer than the %g-bit skewness target",
			m, opt.TargetBits)
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Candidate pool: algebraically skewed nodes, rare phase, preferring
	// modest support (small keys), plus raw input literals as filler.
	cands := skew.TopSkewedNodes(work, maxCandidates, 2)
	type scored struct {
		lit  aig.Lit
		sup  []int
		bits float64
	}
	probs := skew.Algebraic(work)
	var pool []scored
	for _, c := range cands {
		sup := work.Support(c)
		if len(sup) == 0 {
			continue
		}
		pool = append(pool, scored{c, sup, skew.Bits(skew.AlgebraicLit(probs, c))})
	}
	for i := 0; i < m; i++ {
		l := work.Input(i)
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		pool = append(pool, scored{l, []int{i}, 1})
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("core: no usable candidate nodes")
	}
	// Prefer high skew then small support.
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].bits != pool[j].bits {
			return pool[i].bits > pool[j].bits
		}
		return len(pool[i].sup) < len(pool[j].sup)
	})

	// The chain seed must be a common event (a few bits at most): seeding
	// with an already-rare existing node would make L a raw copy of a
	// C node, whose structured on-set can collapse the effective key
	// space (e.g. equality cones are shift-invariant) and whose restore
	// unit would be a verbatim cone copy. Composition with randomly drawn
	// operators is what randomizes the locking pattern.
	lc := &lockingCircuit{}
	seed := pool[0]
	for _, cand := range pool {
		if cand.bits <= 4 {
			seed = cand
			break
		}
	}
	lc.Root = seed.lit
	lc.Stages = []aig.Lit{seed.lit}
	// Measure the seed by Monte Carlo (it is a common event by design).
	p := skew.MonteCarlo(work, lc.Root, 64, opt.Seed)
	if p > 0.5 {
		lc.Root = lc.Root.Not()
		lc.Stages[0] = lc.Root
		p = 1 - p
	}
	if p == 0 {
		// Extremely rare already or constant: re-measure via splitting.
		p = math.Pow(2, -skew.SplittingBits(work, lc.Root, splitOpts(opt, 0)))
	}
	curBits := skew.Bits(p)
	curProb := p

	const minAttachments = 3
	// hardened reports whether L's on-set avoids the two degeneracies that
	// collapse SAT-attack security regardless of skewness:
	//
	//   - membership of attacker-typical points (all-zeros / all-ones):
	//     a default-phase DIP that lands in the on-set reveals the
	//     surviving key coset immediately;
	//   - an affine (coset-structured) on-set — AND chains of parity or
	//     equality cones have this shape — for which every key in the
	//     shifted coset is exactly correct, so one lucky DIP ends the
	//     attack. The statistical test XORs sampled witness triples: for
	//     an affine on-set the triple XOR always stays inside.
	//
	// Majority attachments break affine structure (their on-set is a
	// union, not an intersection, of constraints).
	hardened := func() bool {
		zeros := make([]bool, m)
		ones := make([]bool, m)
		for i := range ones {
			ones[i] = true
		}
		v := work.EvalLits(zeros, lc.Root)
		if v[0] {
			return false
		}
		if work.EvalLits(ones, lc.Root)[0] {
			return false
		}
		wit := samplers.Sampler(lc.Root, opt.Seed^0x9e3779b9).Sample(6)
		if len(wit) < 3 {
			return true // cannot test; construction estimates vouch for satisfiability
		}
		for a := 0; a < len(wit); a++ {
			for b := a + 1; b < len(wit); b++ {
				for c := b + 1; c < len(wit); c++ {
					x := make([]bool, m)
					for i := range x {
						x[i] = wit[a][i] != wit[b][i] != wit[c][i]
					}
					if !work.EvalLits(x, lc.Root)[0] {
						return true // triple escapes: not affine
					}
				}
			}
		}
		return false
	}
	gain := gainBits
	stall := 0
	// maxSupport bounds the key length (support of L).
	maxSupport := int(2.5*opt.TargetBits) + 8
	curSup := map[int]bool{}
	for _, s := range seed.sup {
		curSup[s] = true
	}
	unionSize := func(sup []int) int {
		n := len(curSup)
		for _, s := range sup {
			if !curSup[s] {
				n++
			}
		}
		return n
	}
	// The support must exceed the skewness by the margin, capped by what
	// the circuit can offer at all.
	marginFor := func(bits float64) float64 {
		limit := float64(m) - bits
		if limit < supportMargin {
			return math.Max(0, limit)
		}
		return supportMargin
	}
	supportOK := func() bool {
		return float64(len(curSup)) >= curBits+marginFor(curBits)
	}
	// unmet names the goals the loop below is still working towards;
	// hardening is only pursued once the other three hold.
	unmet := func() []string {
		var goals []string
		if curBits < opt.TargetBits {
			goals = append(goals, fmt.Sprintf("skew %.1f bits below target", curBits))
		}
		if lc.Attachments < minAttachments {
			goals = append(goals, fmt.Sprintf("attachments %d of %d", lc.Attachments, minAttachments))
		}
		if !supportOK() {
			goals = append(goals, fmt.Sprintf("support margin: support %d inputs, needs %.1f (skew + %.1f margin)",
				len(curSup), curBits+marginFor(curBits), marginFor(curBits)))
		}
		if len(goals) == 0 {
			goals = append(goals, "hardening: on-set still affine or holds an all-zeros/all-ones point")
		}
		return goals
	}
	hardenOK := false
	hardenChecks := 0
	for curBits < opt.TargetBits || lc.Attachments < minAttachments || !supportOK() || !hardenOK {
		basicsOK := curBits >= opt.TargetBits && lc.Attachments >= minAttachments && supportOK()
		if basicsOK {
			// Only pay for the hardening check once the cheap goals hold.
			hardenChecks++
			if hardened() || hardenChecks > 10 {
				hardenOK = true
				continue
			}
		}
		hardenMode := basicsOK
		supportMode := !supportOK() && curBits >= opt.TargetBits
		accepted := false
		for try := 0; try < triesPerLevel; try++ {
			cand := pool[rng.Intn(len(pool))]
			// Respect the support bound (key length control); the cap is
			// soft — it relaxes when construction would otherwise stall.
			u := unionSize(cand.sup)
			if u > maxSupport {
				continue
			}
			if supportMode && u <= len(curSup) {
				continue // need candidates bringing fresh inputs
			}
			op := rng.Intn(4)
			if hardenMode || supportMode {
				// Majority attachments widen the support (and usually
				// lower the skewness, which the main loop re-earns) while
				// breaking affine structure.
				op = 3
			}
			var tentative aig.Lit
			switch op {
			case 0, 1: // AND with candidate (the workhorse)
				tentative = work.And(lc.Root, cand.lit)
			case 2: // AND with complement (diversification)
				tentative = work.And(lc.Root, cand.lit.Not())
			default: // MAJ with two candidates: maj(cur, c1, c2)
				c2 := pool[rng.Intn(len(pool))]
				tentative = work.Maj(lc.Root, cand.lit, c2.lit)
			}
			if tentative == lc.Root || tentative.IsConst() {
				continue
			}
			newProb, ok := chainProb(samplers, tentative, lc.Root, curProb, quickSamples, opt.Seed+int64(lc.Attachments)*31+int64(try))
			if !ok || newProb <= 0 {
				continue
			}
			g := skew.Bits(newProb) - curBits
			need := gain
			if hardenMode {
				// Majority steps commonly cost skew (their on-set grows);
				// the main loop re-earns it afterwards.
				need = -6
			}
			if supportMode {
				// Fresh-support attachments are about width, not depth.
				need = -6
			}
			if g >= need {
				// Accept; refine the estimate with a larger budget.
				refined, ok2 := chainProb(samplers, tentative, lc.Root, curProb, refineSamples, opt.Seed^0x5bd1e995+int64(lc.Attachments))
				if ok2 && refined > 0 {
					newProb = refined
				}
				prevBits := curBits
				lc.Root = tentative
				lc.Stages = append(lc.Stages, tentative)
				for _, s := range work.Support(tentative) {
					curSup[s] = true
				}
				curProb = newProb
				curBits = skew.Bits(newProb)
				lc.Attachments++
				if opt.Span.Enabled() {
					opt.Span.Event("attach",
						obs.Int("n", int64(lc.Attachments)),
						obs.Int("op", int64(op)),
						obs.Float("gain_bits", curBits-prevBits),
						obs.Float("skew_bits", curBits),
						obs.Int("support", int64(len(curSup))))
				}
				accepted = true
				gain = gainBits
				break
			}
		}
		if !accepted {
			gain *= gainDecay
			stall++
			if stall%12 == 0 {
				// The support cap is binding or the pool is correlated;
				// loosen the cap before giving up.
				maxSupport += 8
			}
			if stall > 60 {
				return nil, fmt.Errorf("core: locking-circuit construction stalled at %.1f bits (target %g): %s",
					curBits, opt.TargetBits, strings.Join(unmet(), "; "))
			}
			continue
		}
		stall = 0
	}
	lc.SkewBits = curBits
	lc.Support = work.Support(lc.Root)
	return lc, nil
}

// chainProb estimates P(next=1) from P(cur=1) and sampled conditionals —
// one splitting step along the chain. Its witnesses come from pool, which
// keeps cur's solver prepared across the tries of a level and memoizes
// the witnesses and rejection samples that the retried tries of a failed
// level draw again.
func chainProb(pool *sample.Pool, next, cur aig.Lit, curProb float64, samples int, seed int64) (float64, bool) {
	pGiven, ok := condProb(pool, next, cur, samples, seed)
	if !ok {
		return 0, false
	}
	// P(next | !cur): the complement of a rare event is common — estimate
	// by plain Monte Carlo conditioned by rejection (cheap), falling back
	// to the SAT sampler only when rejection fails.
	var pGivenNot float64
	if acc := pool.Accepted(cur.Not(), samples, seed+1); len(acc) >= samples/2 {
		pGivenNot = pool.Fraction(next, acc)
	} else {
		pGivenNot, _ = condProb(pool, next, cur.Not(), samples/2, seed+2)
	}
	return pGiven*curProb + pGivenNot*(1-curProb), true
}

func splitOpts(opt buildOptions, round int64) skew.SplittingOptions {
	so := skew.DefaultSplittingOptions()
	so.Seed = opt.Seed + round
	so.SamplesPerStage = refineSamples
	return so
}
