package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"obfuslock/internal/aig"
	"obfuslock/internal/cnf"
	"obfuslock/internal/count"
	"obfuslock/internal/exec"
	"obfuslock/internal/locking"
	"obfuslock/internal/obs"
	"obfuslock/internal/rewrite"
	"obfuslock/internal/sat"
	"obfuslock/internal/simp"
)

// selectCut walks backwards from the protected output's root, repeatedly
// expanding the deepest frontier node into its fanins, until the frontier
// is wide enough AND the number of reachable patterns on it is exponential
// in its width (checked with the approximate model counter). Primary
// inputs stop the expansion (a PI frontier is trivially fully reachable).
func selectCut(ctx context.Context, g *aig.AIG, po int, minCut int, seed int64, tr *obs.Tracer) ([]uint32, float64, error) {
	lv, _ := g.Levels()
	root := g.Output(po)
	inFrontier := map[uint32]bool{}
	var frontier []uint32
	add := func(v uint32) {
		if v != 0 && !inFrontier[v] {
			inFrontier[v] = true
			frontier = append(frontier, v)
		}
	}
	if g.Op(root.Var()) == aig.OpInput {
		return nil, 0, fmt.Errorf("core: protected output is a primary input")
	}
	for _, f := range g.Fanins(root.Var()) {
		add(f.Var())
	}
	expand := func() bool {
		// Pick the deepest expandable frontier node.
		best := -1
		for i, v := range frontier {
			if g.Op(v) == aig.OpInput {
				continue
			}
			if best < 0 || lv[v] > lv[frontier[best]] {
				best = i
			}
		}
		if best < 0 {
			return false // all PIs
		}
		v := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		delete(inFrontier, v)
		for _, f := range g.Fanins(v) {
			add(f.Var())
		}
		return true
	}
	const gamma = 0.7
	copt := count.DefaultOptions()
	copt.Seed = seed
	copt.Trials = 3
	copt.Trace = tr
	for round := 0; ; round++ {
		for len(frontier) < minCut {
			if !expand() {
				break
			}
		}
		// All-PI frontier: fully reachable by definition.
		allPI := true
		for _, v := range frontier {
			if g.Op(v) != aig.OpInput {
				allPI = false
				break
			}
		}
		cutLits := make([]aig.Lit, len(frontier))
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		for i, v := range frontier {
			cutLits[i] = aig.MkLit(v, false)
		}
		if allPI {
			return frontier, float64(len(frontier)), nil
		}
		r := count.ReachablePatterns(ctx, g, cutLits, copt)
		if r.Decided && !math.IsInf(r.Log2Count, -1) && r.Log2Count >= gamma*float64(len(frontier)) {
			return frontier, r.Log2Count, nil
		}
		// Not reachable enough: push the cut deeper.
		progressed := false
		for i := 0; i < 4; i++ {
			if expand() {
				progressed = true
			}
		}
		if !progressed {
			return frontier, float64(len(frontier)), nil // PI cut fallback
		}
		if round > 64 {
			return nil, 0, fmt.Errorf("core: no sufficiently reachable cut found")
		}
	}
}

// lockSubCircuit locks only the transitive fan-out cone of a selected cut:
// the sub-circuit between the cut and the protected output is double-flip
// locked over the cut variables, and the result is stitched back into the
// full netlist. Attackers must reason through the input logic to drive cut
// patterns, which the reachability condition makes expensive.
func lockSubCircuit(ctx context.Context, c *aig.AIG, opt Options, sp *obs.Span) (*Result, error) {
	po := opt.ProtectedOutput
	if po < 0 {
		po = pickProtectedOutput(c)
	}
	if po >= c.NumOutputs() {
		return nil, fmt.Errorf("core: protected output %d out of range", po)
	}
	minCut := opt.SubCircuitMinCut
	if minCut <= 0 {
		minCut = int(opt.TargetSkewBits) + 8
	}
	csp := sp.Span("lock.select_cut", obs.Int("min_cut", int64(minCut)))
	cut, reach, err := selectCut(ctx, c, po, minCut, opt.Seed, opt.Trace)
	if err != nil {
		csp.End(obs.Str("error", err.Error()))
		return nil, err
	}
	csp.End(obs.Int("cut_width", int64(len(cut))), obs.Float("log2_reach", reach))
	sub, bnd := c.ExtractBounded([]aig.Lit{c.Output(po)}, cut)

	// The chain is built over the free cut space, but the flips only ever
	// fire on cut patterns the input logic can actually produce. A chain
	// whose (tiny) on-set misses the reachable set — or is shift-invariant
	// over it — has dead key bits: the correct key verifies, yet flipping
	// those bits corrupts nothing. Count the provably dead bits of each
	// candidate chain (bit j is dead when no input x gives
	// L(cut(x)) ≠ L(cut(x) ⊕ e_j)) and retry the construction under fresh
	// seeds until a fully effective chain appears, keeping the best one.
	subOpt := opt
	subOpt.SubCircuit = false
	subOpt.AllowDirect = false
	subOpt.ProtectedOutput = 0
	var (
		subRes   *Result
		lockFn   *aig.AIG
		bestDead = -1
	)
	const chainAttempts = 4
	for attempt := int64(0); attempt < chainAttempts; attempt++ {
		if attempt > 0 {
			subOpt.Seed = opt.Seed + 104729*attempt
		}
		r, rerr := lockDoubleFlip(ctx, sub, subOpt, sp)
		if rerr != nil {
			// A stalled seed is only fatal when no attempt built anything.
			if attempt == chainAttempts-1 && subRes == nil {
				return nil, fmt.Errorf("core: sub-circuit lock: %w", rerr)
			}
			sp.Event("lock.sub_retry",
				obs.Int("attempt", attempt+1), obs.Str("error", rerr.Error()))
			continue
		}
		dead := 0
		if r.LockingFunction != nil {
			dead = deadKeyBits(ctx, c, bnd, r.LockingFunction)
		}
		if bestDead < 0 || dead < bestDead {
			subRes, lockFn, bestDead = r, composeSubLockingFn(c, bnd, r.LockingFunction), dead
		}
		if dead == 0 {
			break
		}
		sp.Event("lock.sub_retry",
			obs.Int("attempt", attempt+1), obs.Int("dead_key_bits", int64(dead)))
	}
	subL := subRes.Locked

	// Stitch: rebuild C, append key inputs, replace the protected output
	// by the locked sub-circuit evaluated on the cut signals.
	enc := c.Copy()
	enc.Name = c.Name + "_obfuslock"
	ks := make([]aig.Lit, subL.KeyBits)
	for i := range ks {
		ks[i] = enc.AddInput(locking.KeyName(i))
	}
	piMap := make([]aig.Lit, len(bnd)+subL.KeyBits)
	for i, v := range bnd {
		piMap[i] = aig.MkLit(v, false)
	}
	copy(piMap[len(bnd):], ks)
	newOut := enc.ImportCone(subL.Enc, piMap, []aig.Lit{subL.Enc.Output(0)})[0]
	enc.SetOutput(po, newOut)
	encC := enc.Cleanup()
	if opt.FinalRewrite {
		encC = rewrite.FunctionalRewrite(encC, opt.Seed+9)
	}

	l := &locking.Locked{
		Scheme:    "obfuslock",
		Enc:       encC,
		NumInputs: c.NumInputs(),
		KeyBits:   subL.KeyBits,
		Key:       subL.Key,
	}
	rep := subRes.Report
	rep.Mode = "sub-circuit"
	rep.ProtectedOutput = po
	rep.CutWidth = len(cut)
	rep.CutLog2Reach = reach
	rep.OrigNodes = c.NumNodes()
	rep.EncNodes = encC.NumNodes()
	if rep.CriticalNode != "" {
		// The sub lock's verdict is about the extracted sub-netlist; the
		// stitched and rewritten netlist is what ships, so scan that.
		rep.CriticalNode = criticalCheck(ctx, l,
			newWitnesses(c, c.Output(po)),
			newWitnesses(lockFn, lockFn.Output(0)), opt, sp)
	}

	return &Result{Locked: l, Report: rep, LockingFunction: lockFn}, nil
}

// composeSubLockingFn builds the locking-function reference over the full
// inputs, L(cut(x)), from the sub-circuit's locking function (over the cut
// variables bnd of c). Returns nil when subLF is nil.
func composeSubLockingFn(c *aig.AIG, bnd []uint32, subLF *aig.AIG) *aig.AIG {
	if subLF == nil {
		return nil
	}
	lockFn := aig.New()
	xs := make([]aig.Lit, c.NumInputs())
	for i := range xs {
		xs[i] = lockFn.AddInput(c.InputName(i))
	}
	bndRoots := make([]aig.Lit, len(bnd))
	for i, v := range bnd {
		bndRoots[i] = aig.MkLit(v, false)
	}
	mappedBnd := lockFn.ImportCone(c, xs, bndRoots)
	lOut := lockFn.ImportCone(subLF, mappedBnd, []aig.Lit{subLF.Output(0)})
	lockFn.AddOutput(lOut[0], "L")
	return lockFn
}

// deadKeyBits counts the key bits of the sub lock that are ineffective
// through the cut: for support position j of subLF (the locking function
// over the cut variables bnd of c), some input x must satisfy
// L(cut(x)) ≠ L(cut(x) ⊕ e_j) — otherwise flipping that key bit never
// corrupts the shipped netlist. Only a proven UNSAT counts as dead; an
// exhausted budget or a cancelled context gives the bit the benefit of
// the doubt (a retry could not be validated any better).
func deadKeyBits(ctx context.Context, c *aig.AIG, bnd []uint32, subLF *aig.AIG) int {
	g := aig.New()
	xs := make([]aig.Lit, c.NumInputs())
	for i := range xs {
		xs[i] = g.AddInput(c.InputName(i))
	}
	bndRoots := make([]aig.Lit, len(bnd))
	for i, v := range bnd {
		bndRoots[i] = aig.MkLit(v, false)
	}
	mapped := g.ImportCone(c, xs, bndRoots)
	root := []aig.Lit{subLF.Output(0)}
	base := g.ImportCone(subLF, mapped, root)[0]
	var miters []aig.Lit
	for _, p := range subLF.Support(root[0]) {
		shifted := append([]aig.Lit(nil), mapped...)
		shifted[p] = mapped[p].Not()
		alt := g.ImportCone(subLF, shifted, root)[0]
		miters = append(miters, g.Xor(base, alt))
	}
	s := sat.New()
	e := cnf.NewEncoder(g, s)
	lits := e.Encode(miters...)
	s.SetBudget(exec.WithConflicts(2_000_000).ConflictCap())
	s.SetContext(ctx)
	for _, l := range lits {
		s.FreezeLit(l)
	}
	simp.Apply(s, true, nil)
	dead := 0
	for _, l := range lits {
		if s.Solve(l) == sat.Unsat {
			dead++
		}
	}
	return dead
}
