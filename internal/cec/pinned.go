package cec

import (
	"context"
	"fmt"
	"time"

	"obfuslock/internal/aig"
	"obfuslock/internal/fraig"
	"obfuslock/internal/obs"
	"obfuslock/internal/sim"
)

// Pinned checks variants of one implementation against one spec, where
// each variant pins a few implementation nodes to constants (the removal
// and Valkyrie attacks' candidate modifications). The spec and the
// unpinned implementation are combined, and swept when Options.Sweep is
// set, once; a check then rebuilds only the pinned nodes' fanout cone
// over the base and solves whatever output pairs the rebuild leaves
// apart. Every base merge is a proven equality, so a rebuilt variant
// computes exactly the function of the variant netlist built from
// scratch, and decided verdicts equal Check's on that netlist.
type Pinned struct {
	opt     Options
	impl    *aig.AIG
	base    *aig.AIG
	lit     []aig.Lit  // impl var -> literal in base
	specOut []aig.Lit  // spec outputs in base
	in      [][]uint64 // simulation-filter patterns (nil: filter off)
}

// NewPinned builds the base for pinned checks of impl against spec. The
// first spec.NumInputs() inputs of impl are shared with spec; the
// remaining len(tie) inputs are tied to the constants in tie. The base
// sweep honours ctx and opt.Budget; a sweep left incomplete is still
// sound, it only leaves more work to each check.
func NewPinned(ctx context.Context, spec, impl *aig.AIG, tie []bool, opt Options) (*Pinned, error) {
	n := spec.NumInputs()
	if impl.NumInputs() != n+len(tie) || impl.NumOutputs() != spec.NumOutputs() {
		return nil, fmt.Errorf("cec: interface mismatch: %d+%d/%d inputs, %d/%d outputs",
			n, len(tie), impl.NumInputs(), spec.NumOutputs(), impl.NumOutputs())
	}
	g := aig.New()
	piMap := make([]aig.Lit, n, impl.NumInputs())
	for i := range piMap {
		piMap[i] = g.AddInput(spec.InputName(i))
	}
	specOut := g.Import(spec, piMap)
	for _, t := range tie {
		piMap = append(piMap, aig.ConstFalse.NotIf(t))
	}
	vars := make([]aig.Lit, impl.MaxVar()+1)
	for v := range vars {
		vars[v] = aig.MkLit(uint32(v), false)
	}
	lit := g.ImportCone(impl, piMap, vars)
	if opt.Sweep {
		for i, o := range specOut {
			g.AddOutput(o, "a:"+spec.OutputName(i))
		}
		for i, o := range impl.Outputs() {
			g.AddOutput(lit[o.Var()].NotIf(o.IsCompl()), "b:"+impl.OutputName(i))
		}
		fr := fraig.Sweep(ctx, g, fraig.Options{
			Seed:   opt.Seed,
			Budget: opt.Budget,
			Trace:  opt.Trace,
		})
		through := func(l aig.Lit) aig.Lit { return fr.Map[l.Var()].NotIf(l.IsCompl()) }
		for i, l := range specOut {
			specOut[i] = through(l)
		}
		for v, l := range lit {
			lit[v] = through(l)
		}
		g = fr.Graph
	}
	p := &Pinned{opt: opt, impl: impl, base: g, lit: lit, specOut: specOut}
	if opt.SimWords > 0 && n > 0 {
		p.in = sim.RandomInputs(n, opt.SimWords, opt.Seed)
	}
	return p, nil
}

// Check decides whether impl, with each variable in pins replaced by the
// given constant and its tied inputs bound, is equivalent to spec.
// Output pairs the rebuild lands on the same base literal are proven
// equal; the rest go through the simulation filter and then one miter
// solve under Options.Budget. Cancelling ctx (or exhausting the budget)
// yields an undecided result.
func (p *Pinned) Check(ctx context.Context, pins map[uint32]bool) Result {
	start := time.Now()
	sp := p.opt.Trace.Span("cec.check",
		obs.Int("pinned", int64(len(pins))),
		obs.Bool("sweep", p.opt.Sweep))
	r := p.check(ctx, pins, sp)
	r.Runtime = time.Since(start)
	sp.End(
		obs.Bool("equivalent", r.Equivalent),
		obs.Bool("decided", r.Decided))
	return r
}

func (p *Pinned) check(ctx context.Context, pins map[uint32]bool, sp *obs.Span) Result {
	g := p.base.Copy()
	m := append([]aig.Lit(nil), p.lit...)
	mapped := func(l aig.Lit) aig.Lit { return m[l.Var()].NotIf(l.IsCompl()) }
	roots := make([]uint32, 0, len(pins))
	for v := range pins {
		roots = append(roots, v)
	}
	cone := p.impl.TFO(roots...)
	for v := uint32(1); v <= p.impl.MaxVar(); v++ {
		if !cone[v] {
			continue
		}
		if val, ok := pins[v]; ok {
			m[v] = aig.ConstFalse.NotIf(val)
			continue
		}
		fan := p.impl.Fanins(v)
		switch p.impl.Op(v) {
		case aig.OpAnd:
			m[v] = g.And(mapped(fan[0]), mapped(fan[1]))
		case aig.OpXor:
			m[v] = g.Xor(mapped(fan[0]), mapped(fan[1]))
		case aig.OpMaj:
			m[v] = g.Maj(mapped(fan[0]), mapped(fan[1]), mapped(fan[2]))
		}
	}
	var pending [][2]aig.Lit
	for i, o := range p.impl.Outputs() {
		if ls, li := p.specOut[i], mapped(o); ls != li {
			pending = append(pending, [2]aig.Lit{ls, li})
		}
	}
	sp.Event("cec.pinned",
		obs.Int("cone", int64(len(cone))),
		obs.Int("pending_outputs", int64(len(pending))))
	if len(pending) == 0 {
		return Result{Equivalent: true, Decided: true}
	}
	if p.in != nil {
		vec := sim.Run(g, p.in)
		for _, pr := range pending {
			if idx, ok := vec.Distinguishes(pr[0], pr[1]); ok {
				sp.Event("cec.sim_refuted")
				return Result{Counterexample: sim.Pattern(p.in, idx), Decided: true}
			}
		}
	}
	return solvePairs(ctx, g, pending, p.opt)
}
