package attacks

import (
	"context"
	"time"

	"obfuslock/internal/aig"
	"obfuslock/internal/cnf"
	"obfuslock/internal/exec"
	"obfuslock/internal/locking"
	"obfuslock/internal/obs"
	"obfuslock/internal/sat"
	"obfuslock/internal/simp"
)

// IOOptions bounds an oracle-guided attack.
type IOOptions struct {
	// Timeout on the whole attack (0: none). Folded into the attack's
	// context via exec.Budget.Bind; an external cancellation of the
	// caller's context has the same effect as an expired timeout.
	Timeout time.Duration
	// MaxIterations caps DIP iterations (0: unlimited for SATAttack,
	// appSATMaxIterations for AppSAT).
	MaxIterations int
	// Seed drives randomized reinforcement (AppSAT).
	Seed int64
	// DIPBatch caps how many candidate DIPs one solve round enumerates
	// (via activation-guarded blocking clauses) and answers in a single
	// bit-parallel oracle pass. 0 selects the default width
	// (defaultDIPBatch); 1 is the classic serial loop. Rounds ramp up to
	// the cap (1, 2, 4, ...), so easy instances never enumerate a full
	// redundant batch. Any width recovers the same canonical key on
	// exact termination — batching changes wall clock, not answers.
	DIPBatch int
	// NoSimp turns off CNF preprocessing of the miter before the first
	// DIP solve and the inprocessing every inprocessEvery DIPs (the
	// CLIs' -simp=false). The zero value runs both.
	NoSimp bool
	// Trace receives an attack.sat / attack.appsat span with one dip
	// event per DIP (elapsed time, oracle queries, per-round solver
	// conflict/learnt deltas), AppSAT reinforce events, and periodic
	// solver.progress events every progressConflicts conflicts. A nil
	// tracer costs nothing and never changes attack behavior.
	Trace *obs.Tracer
}

// DefaultIOOptions is an unbounded exact attack: the zero IOOptions.
func DefaultIOOptions() IOOptions {
	return IOOptions{}
}

const (
	// appSATMaxIterations caps AppSAT's DIPs when
	// IOOptions.MaxIterations is 0.
	appSATMaxIterations = 2048
	// reinforceEvery is how many DIPs AppSAT processes between two
	// random-query reinforcement rounds.
	reinforceEvery = 5
	// randomQueries is the number of random patterns per AppSAT
	// reinforcement round.
	randomQueries = 8
	// progressConflicts is the interval, in solver conflicts, of the
	// traced solver.progress events.
	progressConflicts = 10000
)

// batchWidth normalizes the configured DIP batch width.
func (o IOOptions) batchWidth() int {
	if o.DIPBatch <= 0 {
		return defaultDIPBatch
	}
	return o.DIPBatch
}

// rampWidth is the enumeration width of 0-based round r: it doubles
// from 1 up to the configured batch width. Easy instances that
// terminate within a handful of DIPs therefore never spend a
// full-width round enumerating redundant patterns — iteration budgets
// calibrated for the serial loop keep their meaning — while long hunts
// reach the full width within log2(K) rounds, which is noise against
// the hundreds of rounds they run.
func (o IOOptions) rampWidth(r int) int {
	w := o.batchWidth()
	if r < 31 && 1<<r < w {
		return 1 << r
	}
	return w
}

// IOResult reports an I/O attack outcome.
type IOResult struct {
	// Key is the returned key (nil when none could be extracted).
	Key []bool
	// Exact is true when the attack proved no DIP remains (SAT attack
	// termination); the key is then provably correct.
	Exact bool
	// TimedOut is true when the budget expired — or the context was
	// cancelled — before the attack could terminate.
	TimedOut bool
	// Iterations counts DIPs processed.
	Iterations int
	// Queries counts oracle queries.
	Queries int
	// Runtime of the attack.
	Runtime time.Duration
	// SolverStats are the miter solver's cumulative work counters.
	SolverStats sat.Stats
}

// attackState shares the miter machinery of SATAttack and AppSAT.
type attackState struct {
	l       *locking.Locked
	oracle  *locking.Oracle
	s       *sat.Solver
	xLits   []sat.Lit
	k1Lits  []sat.Lit
	k2Lits  []sat.Lit
	actDiff sat.Lit // activation literal for the difference miter
	stopped func() bool
	// cone amortizes I/O-constraint folding across a batch: one
	// bit-parallel pass over the locked circuit per batch instead of a
	// full-graph constant fold per DIP.
	cone *locking.KeyCone
	// graph holds every I/O constraint of the attack folded into one
	// strashed graph over the key inputs keys, so the cones of all DIPs
	// and reinforcement patterns share their common sub-functions of the
	// key. encs encode it once per key copy (tied to k1Lits and k2Lits);
	// each keeps one solver variable per node until inprocessing
	// eliminates it (see simplify).
	graph *aig.AIG
	keys  []aig.Lit
	encs  [2]*cnf.Encoder
	// keyNodes counts the graph nodes the I/O constraints folded (each
	// encoded once per key copy), for the span's key_nodes field.
	keyNodes int64
	blockBuf []sat.Lit
}

func newAttackState(ctx context.Context, l *locking.Locked, oracle *locking.Oracle, sp *obs.Span) *attackState {
	s, xLits, k1, k2, act := buildMiter(l)
	g := aig.New()
	st := &attackState{
		l: l, oracle: oracle, s: s,
		xLits: xLits, k1Lits: k1, k2Lits: k2, actDiff: act,
		stopped: func() bool { return ctx.Err() != nil },
		cone:    locking.NewKeyCone(l.Enc, l.NumInputs),
		graph:   g,
		keys:    make([]aig.Lit, l.KeyBits),
	}
	for i := range st.keys {
		st.keys[i] = g.AddInput(l.Enc.InputName(l.NumInputs + i))
	}
	for c, kLits := range [][]sat.Lit{k1, k2} {
		st.encs[c] = cnf.NewEncoder(g, s)
		for i, kl := range kLits {
			st.encs[c].TieInput(i, kl)
		}
	}
	s.SetContext(ctx)
	if sp.Enabled() {
		s.SetProgress(progressConflicts, func(p sat.Progress) {
			sp.Event("solver.progress",
				obs.Int("conflicts", p.Conflicts),
				obs.Int("decisions", p.Decisions),
				obs.Int("propagations", p.Propagations),
				obs.Int("restarts", p.Restarts),
				obs.Int("learnt", p.Learnt),
				obs.Int("deleted", p.Deleted),
				obs.Int("clauses", int64(p.Clauses)))
		})
	}
	return st
}

// simplify runs one preprocessing or inprocessing pass and then makes
// both encoders forget every node whose variable the pass eliminated, so
// that a later constraint reaching such a node encodes it afresh.
// Surviving node variables are reused (cnf.Encoder.DropEliminated says
// why that is sound).
func (st *attackState) simplify(tr *obs.Tracer) {
	simp.Apply(st.s, true, tr)
	for _, e := range st.encs {
		e.DropEliminated()
	}
}

// addIOConstraints asserts enc(x, k) == y for both key copies, for each
// pattern of an answered batch. Each pattern's key-only cone is folded
// into the attack's graph, and each encoder encodes only the part of the
// cone that has no live variable yet. A multi-pattern batch folds from
// one bit-parallel simulation pass over the locked circuit (KeyCone)
// instead of one full-graph constant fold per pattern; the folded cones
// are identical either way.
func (st *attackState) addIOConstraints(xs, ys [][]bool, perDIP func(j int)) {
	before := st.graph.NumNodes()
	// A single pattern (the classic serial loop) folds directly; the
	// simulation pass only pays off amortized across a batch.
	batched := len(xs) > 1
	if batched {
		st.cone.Simulate(xs)
	}
	for j, x := range xs {
		var outs []aig.Lit
		if batched {
			outs = st.cone.Fold(st.graph, st.keys, j)
		} else {
			outs = locking.FoldInputs(st.graph, st.l.Enc, st.l.NumInputs, x, st.keys)
		}
		for _, e := range st.encs {
			for i, o := range e.Encode(outs...) {
				if ys[j][i] {
					st.s.AddClause(o)
				} else {
					st.s.AddClause(o.Not())
				}
			}
		}
		if perDIP != nil {
			perDIP(j)
		}
	}
	st.keyNodes += int64(st.graph.NumNodes() - before)
}

// inprocessEvery is the DIP loop's inprocessing cadence in DIPs.
const inprocessEvery = 16

// inprocessDue reports whether the iteration span (lo, hi] that one
// batched round just covered reaches a multiple of inprocessEvery; the
// pass then runs once for the whole round.
func inprocessDue(lo, hi int) bool {
	return hi/inprocessEvery > lo/inprocessEvery
}

// SATAttack runs the oracle-guided SAT attack (Subramanyan et al.): find a
// distinguishing input pattern, query the oracle, constrain both key
// copies, repeat until no DIP remains; then any consistent key is correct
// and the canonical (lexicographically smallest) one is returned. The DIP
// loop runs in batched rounds — up to IOOptions.DIPBatch patterns are
// enumerated per solve and answered by one bit-parallel oracle pass —
// which changes wall clock but neither the recovered key nor the oracle
// query accounting. Cancelling ctx stops the attack promptly with a
// TimedOut result.
func SATAttack(ctx context.Context, l *locking.Locked, oracle *locking.Oracle, opt IOOptions) IOResult {
	return runDIP(ctx, l, oracle, opt, false)
}

// AppSAT runs the approximate SAT attack (Shamsi et al.): the DIP loop is
// augmented with random-query reinforcement and cut off after a fixed
// iteration budget, returning a key not yet proved incorrect. The loop
// runs in the same batched rounds as SATAttack; reinforcement rounds owed
// by the iterations a batch covered run right after it, drawing the same
// pattern stream as the serial loop. Cancelling ctx stops the attack
// promptly with a TimedOut result.
func AppSAT(ctx context.Context, l *locking.Locked, oracle *locking.Oracle, opt IOOptions) IOResult {
	return runDIP(ctx, l, oracle, opt, true)
}

// runDIP is the DIP round loop of both attacks. Each round ramps the
// enumeration width, solves the miter for a batch of DIPs, answers it
// with one oracle pass, folds the I/O constraints into the solver, runs
// inprocessing on its cadence and checks for cancellation. AppSAT differs
// from SATAttack only where a comment says so.
func runDIP(ctx context.Context, l *locking.Locked, oracle *locking.Oracle, opt IOOptions, appsat bool) IOResult {
	start := time.Now()
	ctx, cancel := exec.WithTimeout(opt.Timeout).Bind(ctx)
	defer cancel()
	name, sizeField := "attack.sat", obs.Int("enc_nodes", int64(l.Enc.NumNodes()))
	if appsat {
		// AppSAT is always capped, and its span records the cap.
		if opt.MaxIterations <= 0 {
			opt.MaxIterations = appSATMaxIterations
		}
		name, sizeField = "attack.appsat", obs.Int("max_iterations", int64(opt.MaxIterations))
	}
	sp := opt.Trace.Span(name,
		obs.Int("inputs", int64(l.NumInputs)),
		obs.Int("key_bits", int64(l.KeyBits)),
		sizeField,
		obs.Int("dip_batch", int64(opt.batchWidth())))
	st := newAttackState(ctx, l, oracle, sp)
	// Preprocess the miter once up front. All interface literals (inputs,
	// both key copies, the activation literal) are frozen, so full
	// variable elimination is sound here and for every later constraint.
	if !opt.NoSimp {
		st.simplify(opt.Trace)
	}
	rng := newSplitMix(opt.Seed)
	res := IOResult{}
	reinforced := 0
	// A traced span splits its time into the DIP and key solves, the
	// encoding of the round and its I/O constraints, and the oracle;
	// untraced runs read no clock.
	var solveT, encodeT, oracleT time.Duration
	var t0 time.Time
	mark := func() {
		if sp.Enabled() {
			t0 = time.Now()
		}
	}
	lap := func(d *time.Duration) {
		if sp.Enabled() {
			*d += time.Since(t0)
		}
	}
	for round := 0; ; round++ {
		if opt.MaxIterations > 0 && res.Iterations >= opt.MaxIterations {
			// The cap is SATAttack's budget but AppSAT's normal end.
			res.TimedOut = !appsat
			break
		}
		width := opt.rampWidth(round)
		if opt.MaxIterations > 0 && res.Iterations+width > opt.MaxIterations {
			width = opt.MaxIterations - res.Iterations
		}
		prev := st.s.Stats()
		mark()
		status, dips := st.dipRound(width)
		lap(&solveT)
		if status == sat.Unknown {
			res.TimedOut = true
			break
		}
		if status == sat.Unsat {
			// No DIP remains: extract the canonical correct key.
			mark()
			res.Key = st.extractKey()
			lap(&solveT)
			res.Exact = res.Key != nil
			break
		}
		mark()
		ys := st.oracle.QueryBatch(dips)
		lap(&oracleT)
		d := st.s.Stats().Sub(prev)
		mark()
		st.addIOConstraints(dips, ys, func(j int) {
			res.Iterations++
			if sp.Enabled() {
				sp.Event("dip",
					obs.Int("iter", int64(res.Iterations)),
					obs.Dur("elapsed", time.Since(start)),
					obs.Int("queries", int64(oracle.Queries)),
					obs.Int("batch", int64(len(dips))),
					obs.Int("conflicts_delta", d.Conflicts),
					obs.Int("learnt_delta", d.Learnt),
					obs.Int("decisions_delta", d.Decisions))
			}
		})
		lap(&encodeT)
		// AppSAT runs the reinforcement rounds the batch's iterations
		// owe, drawing random patterns in the same order as the serial
		// loop and answering each round with one bit-parallel oracle pass.
		if appsat {
			for owed := res.Iterations / reinforceEvery; reinforced < owed; reinforced++ {
				xs := make([][]bool, randomQueries)
				for q := range xs {
					x := make([]bool, l.NumInputs)
					for i := range x {
						x[i] = rng.next()&1 == 1
					}
					xs[q] = x
				}
				mark()
				ys := oracle.QueryBatch(xs)
				lap(&oracleT)
				mark()
				st.addIOConstraints(xs, ys, nil)
				lap(&encodeT)
				if sp.Enabled() {
					sp.Event("reinforce",
						obs.Int("round", int64(reinforced+1)),
						obs.Int("random_queries", randomQueries),
						obs.Int("queries", int64(oracle.Queries)))
				}
			}
		}
		if !opt.NoSimp && inprocessDue(res.Iterations-len(dips), res.Iterations) {
			st.simplify(opt.Trace)
		}
		if st.stopped() {
			res.TimedOut = true
			break
		}
	}
	// SATAttack extracts a best-effort key only when it ran out of
	// budget; AppSAT returns a key however its loop ended.
	if res.Key == nil && (appsat || res.TimedOut) {
		mark()
		res.Key = st.extractKey()
		lap(&solveT)
	}
	res.Queries = oracle.Queries
	res.Runtime = time.Since(start)
	res.SolverStats = st.s.Stats()
	sp.End(
		obs.Int("iterations", int64(res.Iterations)),
		obs.Int("queries", int64(res.Queries)),
		obs.Bool("exact", res.Exact),
		obs.Bool("timed_out", res.TimedOut),
		obs.Bool("key_found", res.Key != nil),
		obs.Int("conflicts", res.SolverStats.Conflicts),
		obs.Int("key_nodes", st.keyNodes),
		obs.Int("vars", int64(st.s.NumVars())),
		obs.Int("solve_us", solveT.Microseconds()),
		obs.Int("encode_us", encodeT.Microseconds()),
		obs.Int("oracle_us", oracleT.Microseconds()),
		obs.Int("reencoded_nodes", st.encs[0].Reencoded()+st.encs[1].Reencoded()))
	return res
}

// splitMix is a tiny deterministic PRNG for reinforcement patterns.
type splitMix struct{ state uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{uint64(seed)*0x9E3779B97F4A7C15 + 1} }

func (s *splitMix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SensitizationResult reports the sensitization attack outcome.
type SensitizationResult struct {
	// Isolatable marks key bits that could be sensitized to an output with
	// all other key bits muted.
	Isolatable []bool
	// Recovered holds bit values inferred via oracle queries for the
	// isolatable bits (undefined elsewhere).
	Recovered []bool
	// NumIsolatable counts true entries of Isolatable.
	NumIsolatable int
	// TimedOut is true when the context was cancelled before every key
	// bit was analyzed (the reported bits are still valid).
	TimedOut bool
	// Runtime of the analysis.
	Runtime time.Duration
}

// Sensitization runs the key-sensitization attack (Rajendran et al.): for
// each key bit it searches for an input pattern propagating that bit to an
// output while the other key bits are muted, then infers the bit with one
// oracle query. ObfusLock's input-permutation keys resist this because all
// key bits interfere on every path. budget bounds each per-bit solve.
// Each per-bit solver is preprocessed with full elimination, which is
// sound because every literal the attack reads back is a frozen encoder
// input.
func Sensitization(ctx context.Context, l *locking.Locked, oracle *locking.Oracle, budget exec.Budget) SensitizationResult {
	start := time.Now()
	ctx, cancel := budget.Bind(ctx)
	defer cancel()
	res := SensitizationResult{
		Isolatable: make([]bool, l.KeyBits),
		Recovered:  make([]bool, l.KeyBits),
	}
	for i := 0; i < l.KeyBits; i++ {
		if ctx.Err() != nil {
			res.TimedOut = true
			break
		}
		// Two copies sharing x and all key bits except bit i (0 vs 1).
		s := sat.New()
		s.SetBudget(budget.ConflictCap())
		s.SetContext(ctx)
		e1 := cnf.NewEncoder(l.Enc, s)
		e2 := cnf.NewEncoder(l.Enc, s)
		xLits := make([]sat.Lit, l.NumInputs)
		for j := range xLits {
			xLits[j] = e1.InputLit(j)
			e2.TieInput(j, xLits[j])
		}
		kLits := make([]sat.Lit, l.KeyBits)
		for j := 0; j < l.KeyBits; j++ {
			if j == i {
				continue
			}
			kLits[j] = e1.InputLit(l.NumInputs + j)
			e2.TieInput(l.NumInputs+j, kLits[j])
		}
		ki1 := e1.InputLit(l.NumInputs + i)
		ki2 := e2.InputLit(l.NumInputs + i)
		s.AddClause(ki1.Not()) // copy 1: k_i = 0
		s.AddClause(ki2)       // copy 2: k_i = 1
		o1 := e1.Encode()
		o2 := e2.Encode()
		diffs := make([]sat.Lit, len(o1))
		for j := range o1 {
			diffs[j] = cnf.XorLit(s, o1[j], o2[j])
		}
		s.AddClause(cnf.OrLit(s, diffs...))
		if !simp.Apply(s, true, nil) || s.Solve() != sat.Sat {
			continue // bit cannot be sensitized at all
		}
		x := make([]bool, l.NumInputs)
		for j, xl := range xLits {
			x[j] = s.ModelValue(xl)
		}
		krest := make([]bool, l.KeyBits)
		for j, kl := range kLits {
			if j != i {
				krest[j] = s.ModelValue(kl)
			}
		}
		// Mute check: at (x, krest), no other single key bit may influence
		// the outputs for either value of k_i.
		if !otherBitsMuted(l, x, krest, i) {
			continue
		}
		res.Isolatable[i] = true
		res.NumIsolatable++
		// Infer the bit with one oracle query.
		y := oracle.Query(x)
		k0 := append([]bool(nil), krest...)
		k0[i] = false
		if outputsEqual(evalLocked(l, x, k0), y) {
			res.Recovered[i] = false
		} else {
			res.Recovered[i] = true
		}
	}
	res.Runtime = time.Since(start)
	return res
}

func evalLocked(l *locking.Locked, x, k []bool) []bool {
	full := make([]bool, 0, len(x)+len(k))
	full = append(full, x...)
	full = append(full, k...)
	return l.Enc.Eval(full)
}

func outputsEqual(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func otherBitsMuted(l *locking.Locked, x, krest []bool, i int) bool {
	for _, base := range []bool{false, true} {
		k := append([]bool(nil), krest...)
		k[i] = base
		ref := evalLocked(l, x, k)
		for j := 0; j < l.KeyBits; j++ {
			if j == i {
				continue
			}
			kf := append([]bool(nil), k...)
			kf[j] = !kf[j]
			if !outputsEqual(evalLocked(l, x, kf), ref) {
				return false
			}
		}
	}
	return true
}
