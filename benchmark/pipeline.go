package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"obfuslock/internal/aig"
	"obfuslock/internal/attacks"
	"obfuslock/internal/cec"
	"obfuslock/internal/core"
	"obfuslock/internal/exec"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
	"obfuslock/internal/obs"
	"obfuslock/internal/sat"
	"obfuslock/internal/techmap"
)

// A workload locks a fixed list of circuits, one case per circuit in each
// pass, and runs its attack battery against every lock.
type workload struct {
	name     string
	circuits []string
	skewBits float64
	battery  func(p *pipeline, k *lockCase)
}

// The workloads; README.md says why each exists.
var workloads = []workload{
	{"table1-det", []string{"s9234-s", "c7552-s", "c6288-s", "max-s", "b14-s", "square-s"}, 8, table1Cells},
	{"attack-dip", []string{"c7552-s", "c6288-s", "max-s", "square-s"}, 8, dipCells},
	// square-s is left out: its 12 inputs cannot hold a 10-bit skew; b14-s
	// because its battery alone takes 35 s (README.md, "Run time").
	{"structural", []string{"s9234-s", "c7552-s", "c6288-s", "max-s"}, 10, structuralBattery},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cellMaster is the master seed of every case: a circuit at SmallSuite
// position i is always locked and attacked with exec.DeriveSeed(cellMaster,
// i), as the attack CLI's experiment modes do at their default -seed 1.
// Lock and attack cost vary several-fold between these seeds, so -seed
// only picks the wrong key the verifier must reject (README.md, "Seed
// policy").
const cellMaster = 1

// meter times layer calls from outside: wall time and heap allocations
// and, when tracing, a span around the call for the layer's own spans to
// nest in.
type meter struct {
	tr     *obs.Tracer
	busy   map[string]time.Duration
	calls  map[string]int64
	allocs map[string]uint64
	counts map[string]int64
	solver sat.Stats
}

func newMeter(tr *obs.Tracer) *meter {
	return &meter{
		tr:     tr,
		busy:   map[string]time.Duration{},
		calls:  map[string]int64{},
		allocs: map[string]uint64{},
		counts: map[string]int64{},
	}
}

func (m *meter) time(name string, f func()) time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	sp := m.tr.Span(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	runtime.ReadMemStats(&ms)
	m.busy[name] += d
	m.calls[name]++
	m.allocs[name] += ms.Mallocs - mallocs
	return d
}

func (m *meter) add(name string, n int64) { m.counts[name] += n }

// pipeline is the state of one run: the workload's circuits, built by
// setup, and the meter every case reports into.
type pipeline struct {
	ctx      context.Context
	m        *meter
	circuits map[string]circuit
}

// circuit is one built SmallSuite circuit, its suite position and the
// area of its unlocked mapping.
type circuit struct {
	g     *aig.AIG
	index int
	area  float64
}

// setup builds every circuit of the workload and maps the unlocked ones.
func setup(m *meter, w workload) map[string]circuit {
	suite := netlistgen.SmallSuite()
	out := map[string]circuit{}
	for _, name := range w.circuits {
		for i, b := range suite {
			if b.Name != name {
				continue
			}
			c := circuit{index: i}
			m.time("netlistgen.build", func() { c.g = b.Build() })
			m.time("techmap.analyze", func() { c.area = techmap.Analyze(c.g, 8, 1).AreaUM2 })
			out[name] = c
		}
	}
	return out
}

// lockCase is one lock and everything the workload's battery learned
// about it.
type lockCase struct {
	bench string
	seed  int64
	// wrongBit is the first key bit the wrong-key check flips.
	wrongBit uint64
	orig     *aig.AIG
	res      *core.Result
	cells    []string
	// broken is set when a structural attack succeeded on the lock.
	broken bool
	// deadBits counts key bits found not to matter: flipping one of them
	// still restores the circuit.
	deadBits int
	areaPct  float64
	failures []string
	// lock, lockMax and attack are the case's time in core.Lock (summed and
	// slowest call) and in attack calls.
	lock, lockMax, attack time.Duration
}

func (k *lockCase) fail(format string, args ...any) {
	k.failures = append(k.failures, fmt.Sprintf(format, args...))
}

// runCase locks one circuit, verifies the lock, runs the workload's
// battery against it and maps it. Every pass repeats the same cases.
func (p *pipeline) runCase(w workload, seed int64, name string) *lockCase {
	c := p.circuits[name]
	k := &lockCase{
		bench:    name,
		seed:     exec.DeriveSeed(cellMaster, c.index),
		wrongBit: uint64(exec.DeriveSeed(seed, c.index)),
		orig:     c.g,
	}
	var err error
	k.res, err = p.lock(k, p.lockOptions(w.skewBits, k.seed))
	if err != nil {
		k.fail("lock: %v", err)
		return k
	}
	p.verify(k)
	w.battery(p, k)
	var area float64
	p.m.time("techmap.analyze", func() { area = techmap.Analyze(k.res.Locked.Enc, 8, k.seed).AreaUM2 })
	k.areaPct = (area - c.area) / c.area * 100
	return k
}

func (p *pipeline) lockOptions(skewBits float64, seed int64) core.Options {
	opt := core.DefaultOptions()
	opt.TargetSkewBits = skewBits
	opt.Seed = seed
	opt.AllowDirect = false
	opt.Trace = p.m.tr
	return opt
}

func (p *pipeline) lock(k *lockCase, opt core.Options) (*core.Result, error) {
	var res *core.Result
	var err error
	d := p.m.time("core.lock", func() { res, err = core.Lock(p.ctx, k.orig, opt) })
	k.lock += d
	k.lockMax = max(k.lockMax, d)
	return res, err
}

func (p *pipeline) attack(k *lockCase, name string, f func()) {
	k.attack += p.m.time(name, f)
}

// equivalent decides whether l under key restores orig. An undecided
// check fails the case.
func (p *pipeline) equivalent(k *lockCase, l *locking.Locked, orig *aig.AIG, key []bool, opt cec.Options) bool {
	r, err := cec.Check(p.ctx, orig, l.ApplyKey(key), opt)
	p.m.solver = p.m.solver.Add(r.SolverStats)
	if err != nil || !r.Decided {
		k.fail("equivalence check undecided (err=%v)", err)
		return false
	}
	return r.Equivalent
}

// verify checks, with the swept checker, that the stored key restores the
// circuit and that a key one bit away does not. Flipping a bit L does not
// depend on restores the circuit too; such dead bits are counted and the
// next bit is tried.
func (p *pipeline) verify(k *lockCase) {
	l := k.res.Locked
	if err := l.Validate(); err != nil {
		k.fail("%v", err)
		return
	}
	before := p.m.solver.Conflicts
	p.m.time("cec.verify", func() { p.checkKeys(k, l) })
	p.m.add("cec.verify.conflicts", p.m.solver.Conflicts-before)
}

func (p *pipeline) checkKeys(k *lockCase, l *locking.Locked) {
	opt := cec.SweepOptions()
	opt.Trace = p.m.tr
	if !p.equivalent(k, l, k.orig, l.Key, opt) {
		k.fail("stored key does not restore the circuit")
		return
	}
	first := int(k.wrongBit % uint64(len(l.Key)))
	for j := range l.Key {
		wrong := append([]bool(nil), l.Key...)
		bit := (first + j) % len(wrong)
		wrong[bit] = !wrong[bit]
		if !p.equivalent(k, l, k.orig, wrong, opt) {
			return
		}
		k.deadBits++
	}
	k.fail("no one-bit-flipped key corrupts the circuit")
}

// keyCorrect verifies a key an attack returned, with the check
// experiments.TableIEntry uses for its cells.
func (p *pipeline) keyCorrect(k *lockCase, l *locking.Locked, orig *aig.AIG, key []bool) bool {
	opt := cec.DefaultOptions()
	opt.Trace = p.m.tr
	ok := false
	p.m.time("locking.verify_key", func() { ok = p.equivalent(k, l, orig, key, opt) })
	return ok
}

type ioAttack func(context.Context, *locking.Locked, *locking.Oracle, attacks.IOOptions) attacks.IOResult

// ioCell runs one oracle-guided attack and renders its Table I cell the
// way experiments.TableIEntry does in deterministic mode.
func (p *pipeline) ioCell(k *lockCase, name string, run ioAttack, l *locking.Locked, orig *aig.AIG, maxIter int) string {
	opt := attacks.DefaultIOOptions()
	opt.MaxIterations = maxIter
	opt.Seed = k.seed
	opt.Trace = p.m.tr
	var r attacks.IOResult
	p.attack(k, name, func() { r = run(p.ctx, l, locking.NewOracle(orig), opt) })
	p.m.add(name+".iterations", int64(r.Iterations))
	p.m.add("attacks.queries", int64(r.Queries))
	p.m.solver = p.m.solver.Add(r.SolverStats)
	correct := r.Key != nil && p.keyCorrect(k, l, orig, r.Key)
	switch {
	case correct:
		p.m.add("attacks.broken_cells", 1)
		return fmt.Sprintf("ok/%d", r.Iterations)
	case r.Exact:
		k.fail("%s returned an exact key that does not verify", name)
		return "broken?"
	case r.Key != nil && !r.TimedOut:
		return "wrong"
	default:
		return "TO"
	}
}

// table1Cells is one row of Table I: SAT and AppSAT against the protected
// output alone and against the whole circuit, 40 DIPs each.
func table1Cells(p *pipeline, k *lockCase) {
	l, c := k.res.Locked, k.orig
	subL, subC := singleOutput(l, c, k.res.Report.ProtectedOutput)
	k.cells = []string{
		p.ioCell(k, "attacks.sat", attacks.SATAttack, subL, subC, 40),
		p.ioCell(k, "attacks.sat", attacks.SATAttack, l, c, 40),
		p.ioCell(k, "attacks.appsat", attacks.AppSAT, subL, subC, 40),
		p.ioCell(k, "attacks.appsat", attacks.AppSAT, l, c, 40),
	}
}

// dipCells runs the whole-circuit DIP loops long enough to dominate.
func dipCells(p *pipeline, k *lockCase) {
	l, c := k.res.Locked, k.orig
	k.cells = []string{
		p.ioCell(k, "attacks.sat", attacks.SATAttack, l, c, 160),
		p.ioCell(k, "attacks.appsat", attacks.AppSAT, l, c, 160),
	}
}

// structuralBattery is experiments.Structural's attacker-side evaluation
// plus the critical-node search against L. On s9234-s it adds Fig. 4's
// naive lock, whose critical node must be found.
func structuralBattery(p *pipeline, k *lockCase) {
	l, c := k.res.Locked, k.orig
	fopt := cec.DefaultFindOptions()
	fopt.Seed = k.seed
	fopt.Trace = p.m.tr
	var visC, visL bool
	p.attack(k, "attacks.critical_node", func() {
		_, visC = attacks.CriticalNodeSurvives(p.ctx, l, c, c.Output(k.res.Report.ProtectedOutput), fopt)
		lf := k.res.LockingFunction
		_, visL = attacks.CriticalNodeSurvives(p.ctx, l, lf, lf.Output(0), fopt)
	})
	copt := cec.SweepOptions()
	copt.Budget = exec.WithConflicts(50000)
	copt.Trace = p.m.tr
	var vr attacks.ValkyrieResult
	p.attack(k, "attacks.valkyrie", func() { vr = attacks.Valkyrie(p.ctx, l, c, 6, 64, k.seed, copt) })
	p.m.add("attacks.valkyrie.pairs_tried", int64(vr.PairsTried))
	var rm attacks.RemovalResult
	p.attack(k, "attacks.removal", func() {
		sps := attacks.SPS(l, 64, k.seed, 8)
		rm = attacks.Removal(p.ctx, l, c, sps.Candidates, copt)
	})
	var spi attacks.SPIResult
	p.attack(k, "attacks.spi", func() { spi = attacks.SPI(l, 6) })
	spiOK := p.keyCorrect(k, l, c, spi.Key)
	k.cells = []string{
		fmt.Sprintf("critical=%t/%t", visC, visL),
		fmt.Sprintf("valkyrie=%t", vr.FoundPair),
		fmt.Sprintf("removal=%t", rm.Success),
		fmt.Sprintf("spi=%t", spiOK),
	}
	k.broken = visC || visL || vr.FoundPair || rm.Success || spiOK
	if k.bench == "s9234-s" {
		p.naiveLock(k)
	}
}

// naiveLock is Fig. 4's "before transformation" lock: without structural
// obfuscation its XOR critical node must still be there to find.
func (p *pipeline) naiveLock(k *lockCase) {
	opt := p.lockOptions(10, k.seed)
	opt.DisableObfuscation = true
	res, err := p.lock(k, opt)
	if err != nil {
		k.fail("naive lock: %v", err)
		return
	}
	fopt := cec.DefaultFindOptions()
	fopt.Seed = k.seed
	fopt.Trace = p.m.tr
	found := false
	p.attack(k, "attacks.critical_node", func() {
		_, found = attacks.CriticalNodeSurvives(p.ctx, res.Locked, k.orig, k.orig.Output(res.Report.ProtectedOutput), fopt)
	})
	if !found {
		k.fail("the naive lock hides its critical node")
	}
	k.cells = append(k.cells, fmt.Sprintf("naive-critical=%t", found))
}

// singleOutput restricts a lock and its oracle to the protected output,
// the attacker's sub-circuit strategy of Table I, as the unexported helper
// behind experiments.TableIEntry does.
func singleOutput(l *locking.Locked, orig *aig.AIG, po int) (*locking.Locked, *aig.AIG) {
	cone := func(g *aig.AIG) *aig.AIG {
		out := aig.New()
		pis := make([]aig.Lit, g.NumInputs())
		for i := range pis {
			pis[i] = out.AddInput(g.InputName(i))
		}
		out.AddOutput(out.ImportCone(g, pis, []aig.Lit{g.Output(po)})[0], g.OutputName(po))
		return out
	}
	return &locking.Locked{
		Scheme: l.Scheme, Enc: cone(l.Enc),
		NumInputs: l.NumInputs, KeyBits: l.KeyBits, Key: l.Key,
	}, cone(orig)
}
