// Package core implements ObfusLock itself: a logic-locking framework that
// simultaneously achieves SAT-attack resilience (through input permutation
// encryption of a highly skewed locking circuit), structural-attack
// resilience (through reshaping and elimination rewrites that remove the
// critical node), and locking efficiency (small keys, low overhead,
// seconds of runtime).
//
// The double-flip architecture follows Fig. 2(b) of the paper: the shipped
// netlist computes C(x) ⊕ L(x) ⊕ L*(x ⊕ k), where L is a highly skewed
// single-output function built from nodes of C, the obfuscated unit
// C ⊕ L is blended by the rewrite rules (2)-(5), and the restoring unit
// L*(x ⊕ k) carries key-controlled input permutation with randomized,
// hidden bubble polarities. With the correct key the two L terms cancel.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"obfuslock/internal/aig"
	"obfuslock/internal/cec"
	"obfuslock/internal/locking"
	"obfuslock/internal/obs"
	"obfuslock/internal/rewrite"
	"obfuslock/internal/sample"
	"obfuslock/internal/skew"
)

// Critical-node verdicts of a lock report.
const (
	// CriticalEliminated: no node of the netlist computes the protected
	// output's function or L; both searches were refuted.
	CriticalEliminated = "eliminated"
	// CriticalSurvives: some node was proven to compute one of them.
	CriticalSurvives = "survives"
	// CriticalUndecided: a search ran out of budget.
	CriticalUndecided = "undecided"
)

// witnesses are single-output graphs over the original inputs that are
// proven to compute one function the critical-node scans of a lock look
// for: the spec's own cone, then the cones earlier scans of the same lock
// found, cut from their wrong-key-bound netlists.
type witnesses []*aig.AIG

func newWitnesses(specG *aig.AIG, spec aig.Lit) *witnesses {
	return &witnesses{cec.ConeGraph(specG, spec)}
}

// criticalVerdict searches the wrong-key-bound netlist for a node computing
// the witnesses' function. A witness that strash-imports onto an existing
// node of the netlist (the test FindNode runs first for its spec) decides
// Found without a scan; byWitness reports that. Otherwise the scan takes
// the latest witness as its spec: it shares the balanced structure of the
// candidates it was cut from, so the swept proof merges it cheaply. A node
// the scan finds becomes a new witness. A decided verdict depends only on
// the functions in the netlist, so it is the same whichever witness the
// scan is given.
func criticalVerdict(ctx context.Context, l *locking.Locked, w *witnesses, tr *obs.Tracer) (v cec.FindVerdict, byWitness bool) {
	bound := l.WrongKeyBound()
	comb := bound.Copy()
	for _, g := range *w {
		if x := comb.ImportCone(g, comb.Inputs(), []aig.Lit{g.Output(0)})[0].Var(); x >= 1 && x <= bound.MaxVar() {
			return cec.Found, true
		}
	}
	fopt := cec.DefaultFindOptions()
	fopt.Trace = tr
	spec := (*w)[len(*w)-1]
	lit, v := cec.FindNode(ctx, bound, spec, spec.Output(0), fopt)
	if v == cec.Found {
		*w = append(*w, cec.ConeGraph(bound, lit))
	}
	return v, false
}

// criticalCheck is the paper's CEC check on a locked netlist, recorded as a
// lock.cec span. It searches for f first and for lf only once f is
// refuted; the netlist is clean only when both searches are refuted.
func criticalCheck(ctx context.Context, l *locking.Locked, f, lf *witnesses, opt Options, sp *obs.Span) string {
	csp := sp.Span("lock.cec")
	v, byWitness := criticalVerdict(ctx, l, f, opt.Trace)
	if v == cec.Refuted {
		v, byWitness = criticalVerdict(ctx, l, lf, opt.Trace)
	}
	verdict := CriticalUndecided
	switch v {
	case cec.Refuted:
		verdict = CriticalEliminated
	case cec.Found:
		verdict = CriticalSurvives
	}
	csp.End(obs.Bool("clean", verdict == CriticalEliminated), obs.Str("verdict", verdict),
		obs.Bool("witness", byWitness))
	return verdict
}

// Options configures ObfusLock.
type Options struct {
	// TargetSkewBits is the desired skewness of the locking circuit
	// (paper notation: -20.0 bits of skewness means 2^-20).
	TargetSkewBits float64
	// Seed drives every randomized choice; equal seeds reproduce equal
	// locks.
	Seed int64
	// ProtectedOutput selects the output to double-flip (-1: the output
	// with the deepest cone).
	ProtectedOutput int
	// FinalRewrite runs a randomized functional-rewriting pass over the
	// whole encrypted netlist to erase residual traces.
	FinalRewrite bool
	// SubCircuit enables cut-based sub-circuit locking.
	SubCircuit bool
	// SubCircuitMinCut is the minimum cut width (0: derived from target).
	SubCircuitMinCut int
	// AllowDirect permits whole-circuit input permutation encryption when
	// the original outputs are already skewed enough.
	AllowDirect bool
	// DisableObfuscation skips structural reshaping/elimination and the
	// final rewrite, leaving the bare double-flip structure with an
	// explicit XOR critical node. Insecure against structural analysis —
	// exists only as the "before transformation" baseline of Fig. 4.
	DisableObfuscation bool
	// Trace receives spans/events for every lock phase (skewness
	// assessment, L-construction with per-attachment gain events,
	// permutation encryption, blending with per-rule counts, assembly,
	// functional rewrite, CEC verification). A nil tracer costs nothing.
	// Tracing never influences randomized choices: equal seeds produce
	// equal locks with or without it.
	Trace *obs.Tracer
}

// Rule budgets of the first blend attempt: reshapeApplications bounds
// rules (2)-(4), elimApplications rule (5)-style eliminations. They keep
// the overhead a few percent on benchmark-scale circuits; each failed
// attempt raises both by half.
const (
	reshapeApplications = 16
	elimApplications    = 32
)

// DefaultOptions targets 20 bits of skewness.
func DefaultOptions() Options {
	return Options{
		TargetSkewBits:  20,
		ProtectedOutput: -1,
		FinalRewrite:    true,
		AllowDirect:     true,
	}
}

// Report summarizes a lock.
type Report struct {
	// Mode is "direct", "double-flip" or "sub-circuit".
	Mode string
	// KeyBits is the key length.
	KeyBits int
	// SkewBits is the verified skewness of the locking circuit (or the
	// assessed circuit skewness in direct mode).
	SkewBits float64
	// LockingNodes is the size of L's cone.
	LockingNodes int
	// Attachments counts accepted operator attachments while building L.
	Attachments int
	// ProtectedOutput is the double-flipped output index (-1 in direct mode).
	ProtectedOutput int
	// CutWidth is the sub-circuit cut size (sub-circuit mode only).
	CutWidth int
	// CutLog2Reach is the approximate log2 reachable patterns on the cut.
	CutLog2Reach float64
	// EffectiveBits is the honest security floor min(s, l−s), where s is
	// the skewness and l the key length: a SAT attack needs roughly 2^s
	// queries to hit the locking circuit's on-set, but once hit, only
	// 2^(l−s) keys survive, so both sides must be large. Small circuits
	// cannot push this high — the paper's b09/b10 remark.
	EffectiveBits float64
	// CriticalNode is the verdict of the CEC check that no node of the
	// shipped netlist computes the protected output's function or L
	// (CriticalEliminated, CriticalSurvives or CriticalUndecided). It is
	// empty when no check ran: direct mode, and DisableObfuscation, whose
	// bare XOR keeps the critical node by design.
	CriticalNode string
	// BlendAttempts counts the blend-and-check rounds the lock made (at
	// most 6); a lock that exhausts them ships its last candidate.
	BlendAttempts int
	// OrigNodes / EncNodes are AIG sizes before and after locking.
	OrigNodes int
	EncNodes  int
	// Runtime of the whole lock.
	Runtime time.Duration
}

// Result carries the locked circuit and its report.
type Result struct {
	Locked *locking.Locked
	Report Report
	// LockingFunction is a reference circuit over the original inputs
	// computing the locking circuit L (single output), available in
	// double-flip and sub-circuit modes. Analyses use it to check that no
	// node equivalent to L survives in the shipped netlist.
	LockingFunction *aig.AIG
}

// Lock encrypts the circuit with ObfusLock. Cancelling ctx aborts the
// lock between phases (and inside its SAT-backed checks) with an error.
func Lock(ctx context.Context, c *aig.AIG, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	sp := opt.Trace.Span("lock",
		obs.Str("circuit", c.Name),
		obs.Float("target_skew_bits", opt.TargetSkewBits),
		obs.Int("seed", opt.Seed),
		obs.Int("nodes", int64(c.NumNodes())))
	res, err := lock(ctx, c, opt, sp, start)
	if err != nil {
		sp.End(obs.Str("error", err.Error()))
		return nil, err
	}
	sp.End(
		obs.Str("mode", res.Report.Mode),
		obs.Int("key_bits", int64(res.Report.KeyBits)),
		obs.Float("skew_bits", res.Report.SkewBits),
		obs.Int("enc_nodes", int64(res.Report.EncNodes)),
		obs.Str("critical_node", res.Report.CriticalNode),
		obs.Int("blend_attempts", int64(res.Report.BlendAttempts)),
		obs.Dur("runtime", res.Report.Runtime))
	return res, nil
}

func lock(ctx context.Context, c *aig.AIG, opt Options, sp *obs.Span, start time.Time) (*Result, error) {
	if c.NumOutputs() == 0 {
		return nil, fmt.Errorf("core: circuit has no outputs")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: lock cancelled: %w", err)
	}
	if opt.TargetSkewBits <= 0 {
		opt.TargetSkewBits = 20
	}

	// Step 1: assess the skewness of the original circuit. If every
	// output is already past the threshold, input permutation encryption
	// applies directly (Fig. 1, left branch).
	if opt.AllowDirect && !opt.SubCircuit {
		asp := sp.Span("lock.assess_skew")
		bits, ok := assessCircuitSkewness(c, opt)
		asp.End(obs.Float("bits", bits), obs.Bool("meaningful", ok),
			obs.Bool("direct", ok && bits >= opt.TargetSkewBits))
		if ok && bits >= opt.TargetSkewBits {
			res, err := lockDirect(c, opt, sp)
			if err == nil {
				res.Report.SkewBits = bits
				res.Report.Runtime = time.Since(start)
			}
			return res, err
		}
	}

	var (
		res *Result
		err error
	)
	if opt.SubCircuit {
		res, err = lockSubCircuit(ctx, c, opt, sp)
	} else {
		res, err = lockDoubleFlip(ctx, c, opt, sp)
	}
	if err != nil {
		return nil, err
	}
	res.Report.Runtime = time.Since(start)
	return res, nil
}

// assessCircuitSkewness estimates the combined output skewness: the sum of
// h over all outputs must stay below 2^(m - target). Returns the bits of
// the summed h-fraction and whether the estimate is meaningful.
func assessCircuitSkewness(c *aig.AIG, opt Options) (float64, bool) {
	if c.NumInputs() == 0 {
		return 0, false
	}
	// Cheap Monte-Carlo screen: any output near balance disqualifies
	// immediately (the common case).
	v := skew.NodeSkewness(c, 64, opt.Seed)
	var hFrac float64
	for _, po := range c.Outputs() {
		b := v[po.Var()]
		if b < opt.TargetSkewBits {
			// Refine with splitting only when the screen is borderline.
			if b < opt.TargetSkewBits/2 {
				return b, true
			}
			so := skew.DefaultSplittingOptions()
			so.Seed = opt.Seed
			b = skew.SplittingBits(c, po, so)
			if b < opt.TargetSkewBits {
				return b, true
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		hFrac += math.Pow(2, -b)
	}
	if hFrac == 0 {
		return math.Inf(1), true
	}
	return -math.Log2(hFrac), true
}

// lockDirect applies whole-circuit input permutation encryption:
// C_enc(x, k) = C*(x ⊕ k) with hidden random bubbles; k* = b.
func lockDirect(c *aig.AIG, opt Options, sp *obs.Span) (*Result, error) {
	m := c.NumInputs()
	psp := sp.Span("lock.permute")
	cb, bubbles := rewrite.InsertBubbles(c, opt.Seed)
	cb = rewrite.HideInverters(cb)
	if opt.FinalRewrite {
		cb = rewrite.FunctionalRewrite(cb, opt.Seed)
	}
	psp.End(obs.Int("key_bits", int64(m)))
	enc := aig.New()
	enc.Name = c.Name + "_obfuslock"
	xs := make([]aig.Lit, m)
	for i := 0; i < m; i++ {
		xs[i] = enc.AddInput(c.InputName(i))
	}
	ks := make([]aig.Lit, m)
	for i := 0; i < m; i++ {
		ks[i] = enc.AddInput(locking.KeyName(i))
	}
	piMap := make([]aig.Lit, m)
	for i := 0; i < m; i++ {
		piMap[i] = enc.Xor(xs[i], ks[i])
	}
	outs := enc.Import(cb, piMap)
	for i, o := range outs {
		enc.AddOutput(o, c.OutputName(i))
	}
	l := &locking.Locked{
		Scheme:    "obfuslock",
		Enc:       enc,
		NumInputs: m,
		KeyBits:   m,
		Key:       bubbles,
	}
	return &Result{
		Locked: l,
		Report: Report{
			Mode:            "direct",
			KeyBits:         m,
			ProtectedOutput: -1,
			OrigNodes:       c.NumNodes(),
			EncNodes:        enc.NumNodes(),
		},
	}, nil
}

// pickProtectedOutput returns the output with the deepest logic cone.
func pickProtectedOutput(c *aig.AIG) int {
	lv, _ := c.Levels()
	best, bestLv := 0, -1
	for i, po := range c.Outputs() {
		if l := lv[po.Var()]; l > bestLv {
			best, bestLv = i, l
		}
	}
	return best
}

// lockDoubleFlip runs the main ObfusLock pipeline on the whole circuit.
func lockDoubleFlip(ctx context.Context, c *aig.AIG, opt Options, sp *obs.Span) (*Result, error) {
	po := opt.ProtectedOutput
	if po < 0 {
		po = pickProtectedOutput(c)
	}
	if po >= c.NumOutputs() {
		return nil, fmt.Errorf("core: protected output %d out of range", po)
	}

	// Build L inside a working copy of C so it reuses C's nodes. The
	// construction is randomized and can stall on an unlucky seed
	// (correlated candidate pools); retry with fresh seeds before giving
	// up.
	var (
		work *aig.AIG
		lc   *lockingCircuit
		err  error
	)
	bsp := sp.Span("lock.build_l", obs.Int("protected_output", int64(po)))
	// samplers, samplerBuilds, sampleHits and rejectionHits sum the
	// witness pools of every attempt: the solvers handed out, the
	// conditions prepared for them, and the draws and rejection samples
	// served from the memo.
	var samplers, samplerBuilds, sampleHits, rejectionHits int
	for attempt := int64(0); attempt < 3; attempt++ {
		work = c.Copy()
		pool := sample.NewPool(work)
		lc, err = buildLockingCircuit(work, pool, buildOptions{
			TargetBits: opt.TargetSkewBits,
			Seed:       opt.Seed + 7919*attempt,
			Span:       bsp,
		})
		samplers += pool.Samplers
		samplerBuilds += pool.Builds
		sampleHits += pool.SampleHits
		rejectionHits += pool.RejectionHits
		if err == nil {
			break
		}
		bsp.Event("retry", obs.Int("attempt", attempt+1), obs.Str("error", err.Error()))
	}
	if err != nil {
		bsp.End(obs.Str("error", err.Error()),
			obs.Int("samplers", int64(samplers)),
			obs.Int("sampler_builds", int64(samplerBuilds)),
			obs.Int("sample_hits", int64(sampleHits)),
			obs.Int("rejection_hits", int64(rejectionHits)))
		return nil, err
	}
	bsp.End(
		obs.Float("skew_bits", lc.SkewBits),
		obs.Int("attachments", int64(lc.Attachments)),
		obs.Int("support", int64(len(lc.Support))),
		obs.Int("samplers", int64(samplers)),
		obs.Int("sampler_builds", int64(samplerBuilds)),
		obs.Int("sample_hits", int64(sampleHits)),
		obs.Int("rejection_hits", int64(rejectionHits)))

	// Extract the restoring unit BEFORE blending mutates the cone.
	psp := sp.Span("lock.permute")
	lcone, sup := work.ExtractCone(lc.Root)
	keyBits := len(sup)
	lb, bubbles := rewrite.InsertBubbles(lcone, opt.Seed+1)
	lb = rewrite.HideInverters(lb)
	lb = rewrite.FunctionalRewrite(lb, opt.Seed+2)
	psp.End(obs.Int("key_bits", int64(keyBits)), obs.Int("l_nodes", int64(lcone.NumNodes())))

	m := c.NumInputs()

	// Critical-function specs over the full input space, used to confirm
	// elimination after every netlist transformation (the paper's CEC
	// check that no critical node survives). Their witnesses carry over
	// between the candidates of every blend attempt.
	specLG := aig.New()
	specPIs := make([]aig.Lit, m)
	for i := 0; i < m; i++ {
		specPIs[i] = specLG.AddInput(c.InputName(i))
	}
	lMap := make([]aig.Lit, keyBits)
	for i, pos := range sup {
		lMap[i] = specPIs[pos]
	}
	specL := specLG.ImportCone(lcone, lMap, []aig.Lit{lcone.Output(0)})[0]
	specLG.AddOutput(specL, "L")
	witF := newWitnesses(c, c.Output(po))
	witL := newWitnesses(specLG, specL)

	mk := func(g *aig.AIG) *locking.Locked {
		return &locking.Locked{
			Scheme: "obfuslock", Enc: g,
			NumInputs: m, KeyBits: keyBits, Key: bubbles,
		}
	}
	check := func(g *aig.AIG) string {
		return criticalCheck(ctx, mk(g), witF, witL, opt, sp)
	}

	// Blend, assemble and verify elimination. L is built from nodes of C,
	// so rule applications can occasionally cancel semantically and leave
	// a node equivalent to a critical function; the construction is fully
	// randomized, so retrying with a fresh seed (and a growing rule
	// budget) produces a different netlist until the CEC check is clean.
	// An undecided check is retried like a failed one, never accepted.
	var (
		encC     *aig.AIG
		verdict  string
		attempts int
	)
	reshape, elim := reshapeApplications, elimApplications
	const blendAttempts = 6
	for attempt := int64(0); attempt < blendAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: lock cancelled: %w", err)
		}
		attempts++
		wa := work.Copy()
		var blended aig.Lit
		blendSp := sp.Span("lock.blend",
			obs.Int("attempt", attempt),
			obs.Int("reshape_budget", int64(reshape)),
			obs.Int("elim_budget", int64(elim)))
		if opt.DisableObfuscation {
			blended = wa.Xor(wa.Output(po), lc.Root)
			blendSp.End(obs.Bool("disabled", true))
		} else {
			budget := &blendBudget{
				reshape: reshape,
				elim:    elim,
				rng:     rand.New(rand.NewSource(opt.Seed + 3 + 101*attempt)),
				protect: map[uint32]bool{
					wa.Output(po).Var(): true,
					lc.Root.Var():       true,
				},
			}
			blended = xorBlend(wa, wa.Output(po), lc.Root, budget)
			blendSp.End(
				obs.Int("rule2", int64(budget.applied[ruleAnd])),
				obs.Int("rule3", int64(budget.applied[ruleXor])),
				obs.Int("rule4", int64(budget.applied[ruleMaj])),
				obs.Int("rule5a", int64(budget.applied[ruleCompl])),
				obs.Int("rule5b", int64(budget.applied[ruleElim])),
				obs.Int("fallback_xor", int64(budget.applied[ruleFallback])))
		}
		wa.SetOutput(po, blended)

		// Assemble the encrypted netlist: x inputs, then key inputs.
		asp := sp.Span("lock.assemble")
		enc := aig.New()
		enc.Name = c.Name + "_obfuslock"
		xs := make([]aig.Lit, m)
		for i := 0; i < m; i++ {
			xs[i] = enc.AddInput(c.InputName(i))
		}
		ks := make([]aig.Lit, keyBits)
		for i := range ks {
			ks[i] = enc.AddInput(locking.KeyName(i))
		}
		outs := enc.Import(wa, xs)
		// Restoring unit: L*(x_S ⊕ k).
		piMapL := make([]aig.Lit, keyBits)
		for i, pos := range sup {
			piMapL[i] = enc.Xor(xs[pos], ks[i])
		}
		restore := enc.ImportCone(lb, piMapL, []aig.Lit{lb.Output(0)})[0]
		final := enc.And(enc.And(outs[po], restore.Not()).Not(), enc.And(outs[po].Not(), restore).Not()).Not()
		outs[po] = final
		for i, o := range outs {
			enc.AddOutput(o, c.OutputName(i))
		}
		cand := enc.Cleanup()
		asp.End(obs.Int("nodes", int64(cand.NumNodes())))
		if opt.DisableObfuscation {
			encC = cand
			break
		}
		if opt.FinalRewrite {
			rsp := sp.Span("lock.rewrite")
			rw := rewrite.FunctionalRewrite(cand, opt.Seed+4+attempt)
			rw = rewrite.Balance(rw)
			rsp.End(obs.Int("nodes", int64(rw.NumNodes())))
			if verdict = check(rw); verdict == CriticalEliminated {
				encC = rw
				break
			}
		}
		bal := rewrite.Balance(cand)
		if verdict = check(bal); verdict == CriticalEliminated {
			encC = bal
			break
		}
		reshape += reshape / 2
		elim += elim / 2
		if attempt == blendAttempts-1 {
			// Keep the last candidate rather than failing the lock, and
			// report what the check says about that netlist.
			encC = cand
			verdict = check(cand)
		}
	}

	l := mk(encC)
	return &Result{
		Locked:          l,
		LockingFunction: specLG,
		Report: Report{
			Mode:            "double-flip",
			KeyBits:         keyBits,
			SkewBits:        lc.SkewBits,
			LockingNodes:    lcone.NumNodes(),
			Attachments:     lc.Attachments,
			ProtectedOutput: po,
			EffectiveBits:   math.Min(lc.SkewBits, float64(keyBits)-lc.SkewBits),
			CriticalNode:    verdict,
			BlendAttempts:   attempts,
			OrigNodes:       c.NumNodes(),
			EncNodes:        encC.NumNodes(),
		},
	}, nil
}
