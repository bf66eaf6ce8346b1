// Package experiments regenerates every table and figure of the paper's
// evaluation section. The same harness backs the root bench_test.go (scaled
// runs) and the cmd/attack -table1 sweep (full runs).
//
//   - TableI: key efficiency, lock runtime and SAT/AppSAT resilience per
//     benchmark and skewness level, for both the whole-circuit and the
//     sub-circuit (protected-cone-only) attacker strategies.
//   - Fig4: distributions of node skewness and keys-in-TFI before and
//     after structural transformation.
//   - Fig5: area and power overheads per skewness level.
//   - Structural: critical-node elimination, Valkyrie, SPI and removal
//     outcomes.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"time"

	"obfuslock/internal/aig"
	"obfuslock/internal/attacks"
	"obfuslock/internal/cec"
	"obfuslock/internal/core"
	"obfuslock/internal/exec"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
	"obfuslock/internal/obs"
	"obfuslock/internal/skew"
	"obfuslock/internal/techmap"
)

// Budget bounds the attacks in a sweep and configures its execution.
type Budget struct {
	// Timeout per attack run (the paper used 3 h). Ignored when
	// Deterministic is set.
	Timeout time.Duration
	// MaxIterations caps DIP loops (the paper capped AppSAT at 2048).
	MaxIterations int
	// Workers is the sweep parallelism (non-positive: GOMAXPROCS). Cells
	// run on the exec worker pool with per-cell seeds derived via
	// splitmix from the master seed, so the output is byte-identical at
	// any worker count.
	Workers int
	// Deterministic renders logical outcomes (iteration counts, "TO",
	// "wrong") instead of wall-clock seconds and disables Timeout, making
	// tables and metrics.json byte-identical across runs and machines.
	Deterministic bool
	// NoSimp turns off the CNF pre- and inprocessing of the sweep's
	// SAT/AppSAT DIP loops (the CLIs' -simp=false); locks are built the
	// same either way.
	NoSimp bool
	// DIPBatch is the per-round DIP enumeration width of the sweep's I/O
	// attacks (0: the attacks' default; 1: the classic serial loop).
	// Exact attack outcomes are identical at any width; iteration-count
	// cells can differ between widths but are deterministic per width.
	DIPBatch int
	// Trace, when non-nil, receives lock and attack spans for every
	// sweep cell plus table1.cell wrapper spans.
	Trace *obs.Tracer
}

// TableIRow is one row of Table I. It holds only what the table and
// metrics.json print; each attack cell's solver conflicts are an end
// field of its attack.* span when Budget.Trace is set.
type TableIRow struct {
	Bench    string
	Nodes    int
	SkewBits float64
	KeyBits  int
	LockTime time.Duration
	// Deterministic marks a row produced under Budget.Deterministic:
	// wall-clock cells render as stable markers instead of seconds.
	Deterministic bool
	// Attack cells: decrypt time (or "ok/<iterations>" in deterministic
	// mode), or "TO" / "wrong" markers as in the paper; "undecided" when
	// the returned key's verification did not finish.
	SATSub, SATWhole, AppSATSub, AppSATWhole string
}

func (r TableIRow) String() string {
	lockCell := fmt.Sprintf("%8.2fs", r.LockTime.Seconds())
	if r.Deterministic {
		lockCell = fmt.Sprintf("%9s", "-")
	}
	return fmt.Sprintf("%-10s %6d  %6.1f  %4d  %s  %10s %10s %10s %10s",
		r.Bench, r.Nodes, -r.SkewBits, r.KeyBits, lockCell,
		r.SATSub, r.SATWhole, r.AppSATSub, r.AppSATWhole)
}

// TableIHeader is the printable column header.
const TableIHeader = "bench       nodes    skew  keys  lock-time     SAT-sub  SAT-whole  AppSAT-sub AppSAT-whole"

// singleOutput restricts a locked circuit and its oracle to the protected
// output — the attacker's "target only the sub-circuit" strategy (the
// paper notes the resulting numbers lower-bound the attacker's real cost).
func singleOutput(l *locking.Locked, orig *aig.AIG, po int) (*locking.Locked, *aig.AIG) {
	return &locking.Locked{
		Scheme: l.Scheme, Enc: cec.ConeGraph(l.Enc, l.Enc.Output(po)),
		NumInputs: l.NumInputs, KeyBits: l.KeyBits, Key: l.Key,
	}, cec.ConeGraph(orig, orig.Output(po))
}

// attackCell runs one attack and renders the paper's cell convention:
// decrypt seconds when the returned key is verified correct, "TO" on
// timeout without a correct key, "wrong" when a key came back incorrect.
// In deterministic mode a correct key renders as "ok/<iterations>" —
// wall-clock time is the one quantity that cannot be byte-stable. A key
// whose verification ctx cut short renders "undecided".
func attackCell(ctx context.Context, run func() attacks.IOResult, l *locking.Locked, orig *aig.AIG, deterministic bool) string {
	r := run()
	correct := false
	var verr error
	if r.Key != nil {
		correct, verr = l.VerifyKeyWith(ctx, orig, r.Key, cec.DefaultOptions())
	}
	switch {
	case correct:
		if deterministic {
			return fmt.Sprintf("ok/%d", r.Iterations)
		}
		return fmt.Sprintf("%.1f", r.Runtime.Seconds())
	case verr != nil:
		return "undecided"
	case r.Exact:
		// Terminated claiming exactness but key invalid — should not
		// happen; surface loudly.
		return "broken?"
	case r.TimedOut:
		// SAT attack hit its budget: the paper's "TO" cell (an extracted
		// best-effort key, when present, is incorrect here).
		return "TO"
	case r.Key != nil:
		// Normal termination with an unproven key (AppSAT's cap): the
		// paper's "wrong" cell.
		return "wrong"
	default:
		return "TO"
	}
}

// TableIEntry locks one benchmark at one skewness level and runs the four
// attack cells.
func TableIEntry(ctx context.Context, b netlistgen.Benchmark, skewBits float64, seed int64, budget Budget, w io.Writer) (TableIRow, error) {
	c := b.Build()
	opt := core.DefaultOptions()
	opt.TargetSkewBits = skewBits
	opt.Seed = seed
	opt.AllowDirect = false
	opt.Trace = budget.Trace
	res, err := core.Lock(ctx, c, opt)
	if err != nil {
		return TableIRow{}, fmt.Errorf("%s @ %g bits: %w", b.Name, skewBits, err)
	}
	l := res.Locked
	row := TableIRow{
		Bench:         b.Name,
		Nodes:         c.NumNodes(),
		SkewBits:      res.Report.SkewBits,
		KeyBits:       res.Report.KeyBits,
		LockTime:      res.Report.Runtime,
		Deterministic: budget.Deterministic,
	}
	aopt := attacks.DefaultIOOptions()
	aopt.Timeout = budget.Timeout
	aopt.MaxIterations = budget.MaxIterations
	aopt.Seed = seed
	aopt.Trace = budget.Trace
	aopt.NoSimp = budget.NoSimp
	aopt.DIPBatch = budget.DIPBatch
	if budget.Deterministic {
		// Deterministic cells are bounded by iteration count only; a
		// wall-clock cutoff would decide cells differently between runs.
		aopt.Timeout = 0
	}

	cell := func(name string, run func() attacks.IOResult, cl *locking.Locked, orig *aig.AIG) string {
		csp := budget.Trace.Span("table1.cell",
			obs.Str("bench", b.Name), obs.Float("skew", skewBits), obs.Str("attack", name))
		out := attackCell(ctx, run, cl, orig, budget.Deterministic)
		csp.End(obs.Str("result", out))
		return out
	}

	subL, subOrig := singleOutput(l, c, res.Report.ProtectedOutput)
	row.SATSub = cell("sat-sub", func() attacks.IOResult {
		return attacks.SATAttack(ctx, subL, locking.NewOracle(subOrig), aopt)
	}, subL, subOrig)
	row.SATWhole = cell("sat-whole", func() attacks.IOResult {
		return attacks.SATAttack(ctx, l, locking.NewOracle(c), aopt)
	}, l, c)
	row.AppSATSub = cell("appsat-sub", func() attacks.IOResult {
		return attacks.AppSAT(ctx, subL, locking.NewOracle(subOrig), aopt)
	}, subL, subOrig)
	row.AppSATWhole = cell("appsat-whole", func() attacks.IOResult {
		return attacks.AppSAT(ctx, l, locking.NewOracle(c), aopt)
	}, l, c)

	if w != nil {
		fmt.Fprintln(w, row)
	}
	return row, nil
}

// TableI sweeps benchmarks × skew levels on the worker pool. Each cell
// receives a seed derived via splitmix from the master seed and its cell
// index, so the emitted table is byte-identical at any Budget.Workers
// (modulo wall-clock cells; set Budget.Deterministic for full byte
// stability). Cancelling ctx stops the sweep after the current cells and
// returns the rows finished so far together with the context error.
func TableI(ctx context.Context, suite []netlistgen.Benchmark, skews []float64, seed int64, budget Budget, w io.Writer) ([]TableIRow, error) {
	if w != nil {
		fmt.Fprintln(w, TableIHeader)
	}
	type cellIn struct {
		b    netlistgen.Benchmark
		skew float64
	}
	type cellOut struct {
		row TableIRow
		err error
	}
	var cells []cellIn
	for _, b := range suite {
		for _, s := range skews {
			cells = append(cells, cellIn{b, s})
		}
	}
	var rows []TableIRow
	exec.Collect(ctx, budget.Workers, len(cells), func(ctx context.Context, i int) cellOut {
		row, err := TableIEntry(ctx, cells[i].b, cells[i].skew, exec.DeriveSeed(seed, i), budget, nil)
		return cellOut{row, err}
	}, func(i int, r cellOut) {
		if r.err != nil {
			if w != nil {
				fmt.Fprintf(w, "%-10s %g bits: %v\n", cells[i].b.Name, cells[i].skew, r.err)
			}
			return
		}
		rows = append(rows, r.row)
		if w != nil {
			fmt.Fprintln(w, r.row)
		}
	})
	return rows, ctx.Err()
}

// Fig4Stats summarizes one distribution panel of Fig. 4.
type Fig4Stats struct {
	// SkewHist buckets node skewness (bits): [0-2, 2-4, 4-8, 8-16, 16+].
	SkewHist [5]int
	// KeyHist buckets the number of key inputs in each node's TFI:
	// [0, 1..25%, 25..75%, 75..99%, all].
	KeyHist [5]int
	// MaxSkewBits is the largest finite node skewness.
	MaxSkewBits float64
	// CriticalVisible reports whether a critical node — a node whose
	// function equals the original protected cone or the locking circuit
	// L — still exists in the netlist (the red outlier of Fig. 4(a)/(b)).
	// It is Undecided when a scan ran out of budget without finding one.
	CriticalVisible Verdict
}

// Verdict is a yes/no finding that a budget-bounded check may leave
// open. The zero value is Undecided, so an unsettled check never reads
// as a pass.
type Verdict uint8

const (
	// Undecided: the check ran out of budget (or was cancelled).
	Undecided Verdict = iota
	// No: the check proved the finding false.
	No
	// Yes: the check proved the finding true.
	Yes
)

// String renders decided verdicts as "true"/"false" and an open one as
// "undecided".
func (v Verdict) String() string {
	switch v {
	case Yes:
		return "true"
	case No:
		return "false"
	}
	return "undecided"
}

// criticalEliminated scans the locked netlist, keys bound to a wrong key
// (locking.Locked.WrongKeyBound), for a node computing spec: Yes when the
// scan refuted every node, No when it found one.
func criticalEliminated(ctx context.Context, l *locking.Locked, specG *aig.AIG, spec aig.Lit, fopt cec.FindOptions) Verdict {
	switch _, v := cec.FindNode(ctx, l.WrongKeyBound(), specG, spec, fopt); v {
	case cec.Refuted:
		return Yes
	case cec.Found:
		return No
	}
	return Undecided
}

// criticalVisible is Fig. 4's red outlier: does a node of the locked
// netlist (keys bound as in criticalEliminated) compute the protected
// output spec or, when lf is non-nil, the locking circuit lf's output?
func criticalVisible(ctx context.Context, l *locking.Locked, specG *aig.AIG, spec aig.Lit, lf *aig.AIG, fopt cec.FindOptions) Verdict {
	bound := l.WrongKeyBound()
	_, vc := cec.FindNode(ctx, bound, specG, spec, fopt)
	vl := cec.Refuted
	if lf != nil {
		_, vl = cec.FindNode(ctx, bound, lf, lf.Output(0), fopt)
	}
	switch {
	case vc == cec.Found || vl == cec.Found:
		return Yes
	case vc == cec.Refuted && vl == cec.Refuted:
		return No
	}
	return Undecided
}

// Fig4 locks the circuit twice — without and with structural
// transformation — and returns the node-statistics panels (a,b) and (c,d).
// The two locks are independent and run on the worker pool (each on its
// own copy of c), so workers >= 2 overlaps them.
func Fig4(ctx context.Context, c *aig.AIG, skewBits float64, seed int64, workers int) (before, after Fig4Stats, err error) {
	type out struct {
		st  Fig4Stats
		err error
	}
	var outs [2]out
	exec.Collect(ctx, workers, 2, func(ctx context.Context, i int) out {
		g := c.Copy()
		opt := core.DefaultOptions()
		opt.TargetSkewBits = skewBits
		opt.Seed = seed
		opt.AllowDirect = false
		opt.DisableObfuscation = i == 0
		res, err := core.Lock(ctx, g, opt)
		if err != nil {
			return out{err: err}
		}
		return out{st: fig4Stats(ctx, res, g)}
	}, func(i int, r out) { outs[i] = r })
	if err := ctx.Err(); err != nil {
		return before, after, err
	}
	for _, o := range outs {
		if o.err != nil {
			return before, after, o.err
		}
	}
	return outs[0].st, outs[1].st, nil
}

func fig4Stats(ctx context.Context, res *core.Result, c *aig.AIG) Fig4Stats {
	l := res.Locked
	st := fig4Hist(l)
	// The red outlier: does a node computing a critical function survive?
	st.CriticalVisible = criticalVisible(ctx, l, c, c.Output(res.Report.ProtectedOutput), res.LockingFunction, cec.DefaultFindOptions())
	return st
}

func fig4Hist(l *locking.Locked) Fig4Stats {
	var st Fig4Stats
	g := l.Enc
	sk := skew.NodeSkewness(g, 64, 1)
	keyVars := make([]uint32, l.KeyBits)
	for i := range keyVars {
		keyVars[i] = g.InputVar(l.NumInputs + i)
	}
	// One bitset pass counts the keys in every node's TFI: all of them
	// up to 64 keys, else a 64-key sample, so the buckets are fractions
	// of the keys counted.
	keysIn, counted := countKeysInTFI(g, keyVars)
	for v := uint32(1); v <= g.MaxVar(); v++ {
		if g.Op(v) == aig.OpInput {
			continue
		}
		b := sk[v]
		switch {
		case b < 2:
			st.SkewHist[0]++
		case b < 4:
			st.SkewHist[1]++
		case b < 8:
			st.SkewHist[2]++
		case b < 16:
			st.SkewHist[3]++
		default:
			st.SkewHist[4]++
		}
		if !math.IsInf(b, 1) && b > st.MaxSkewBits {
			st.MaxSkewBits = b
		}
		kfrac := float64(keysIn[v]) / float64(max(1, counted))
		switch {
		case keysIn[v] == 0:
			st.KeyHist[0]++
		case kfrac < 0.25:
			st.KeyHist[1]++
		case kfrac < 0.75:
			st.KeyHist[2]++
		case keysIn[v] < counted:
			st.KeyHist[3]++
		default:
			st.KeyHist[4]++
		}
	}
	return st
}

// countKeysInTFI counts, for each variable, how many of the key variables
// are in its transitive fanin, and returns how many keys it counted: all
// of them up to 64 (one bitset word), otherwise the first 64.
func countKeysInTFI(g *aig.AIG, keyVars []uint32) ([]int, int) {
	if len(keyVars) > 64 {
		keyVars = keyVars[:64]
	}
	sets := make([]uint64, g.MaxVar()+1)
	for i, v := range keyVars {
		sets[v] = 1 << uint(i)
	}
	counts := make([]int, g.MaxVar()+1)
	for v := uint32(1); v <= g.MaxVar(); v++ {
		if g.Op(v) == aig.OpInput {
			counts[v] = bits.OnesCount64(sets[v])
			continue
		}
		var s uint64
		for _, f := range g.Fanins(v) {
			s |= sets[f.Var()]
		}
		sets[v] = s
		counts[v] = bits.OnesCount64(s)
	}
	return counts, len(keyVars)
}

// Fig5Row is one benchmark's PPA overhead at one skewness level.
type Fig5Row struct {
	Bench    string
	SkewBits float64
	Area     techmap.Overhead
}

// Fig5 locks every benchmark at every skewness level and measures the
// area/power/delay overheads on the mapped netlists. Benchmarks run on
// the worker pool, one task per benchmark with a splitmix-derived seed,
// and each task renders its rows into a private buffer so the emitted
// report is byte-identical at any worker count.
func Fig5(ctx context.Context, suite []netlistgen.Benchmark, skews []float64, seed int64, workers int, w io.Writer) ([]Fig5Row, error) {
	if w != nil {
		fmt.Fprintln(w, "bench       skew   area%   power%   delay%")
	}
	type out struct {
		rows []Fig5Row
		text []byte
	}
	var rows []Fig5Row
	sums := map[float64]*techmap.Overhead{}
	counts := map[float64]int{}
	exec.Collect(ctx, workers, len(suite), func(ctx context.Context, i int) out {
		b := suite[i]
		bseed := exec.DeriveSeed(seed, i)
		var buf bytes.Buffer
		var o out
		c := b.Build()
		orig := techmap.Analyze(c, 8, bseed)
		for _, s := range skews {
			opt := core.DefaultOptions()
			opt.TargetSkewBits = s
			opt.Seed = bseed
			opt.AllowDirect = false
			res, err := core.Lock(ctx, c, opt)
			if err != nil {
				fmt.Fprintf(&buf, "%-10s %g bits: %v\n", b.Name, s, err)
				continue
			}
			locked := techmap.Analyze(res.Locked.Enc, 8, bseed)
			ov := techmap.Compare(orig, locked)
			o.rows = append(o.rows, Fig5Row{b.Name, s, ov})
			fmt.Fprintf(&buf, "%-10s %5.0f  %6.1f  %7.1f  %7.1f\n",
				b.Name, s, ov.AreaPct, ov.PowerPct, ov.DelayPct)
		}
		o.text = buf.Bytes()
		return o
	}, func(i int, o out) {
		for _, r := range o.rows {
			rows = append(rows, r)
			if sums[r.SkewBits] == nil {
				sums[r.SkewBits] = &techmap.Overhead{}
			}
			sums[r.SkewBits].AreaPct += r.Area.AreaPct
			sums[r.SkewBits].PowerPct += r.Area.PowerPct
			sums[r.SkewBits].DelayPct += r.Area.DelayPct
			counts[r.SkewBits]++
		}
		if w != nil {
			w.Write(o.text)
		}
	})
	if w != nil {
		for _, s := range skews {
			if counts[s] > 0 {
				n := float64(counts[s])
				fmt.Fprintf(w, "%-10s %5.0f  %6.1f  %7.1f  %7.1f\n",
					"AVERAGE", s, sums[s].AreaPct/n, sums[s].PowerPct/n, sums[s].DelayPct/n)
			}
		}
	}
	return rows, ctx.Err()
}

// StructuralRow summarizes the structural-attack evaluation of one lock.
type StructuralRow struct {
	Bench              string
	CriticalEliminated Verdict
	// ValkyrieResisted and RemovalResisted are Yes when every check of
	// the search was decided and none restored the circuit.
	ValkyrieResisted Verdict
	SPIWrong         bool
	RemovalResisted  Verdict
}

// resisted is the verdict of a structural search that found a break or
// not, with some of its checks possibly left undecided.
func resisted(found bool, undecided int) Verdict {
	switch {
	case found:
		return No
	case undecided > 0:
		return Undecided
	}
	return Yes
}

// Structural locks each benchmark and runs the structural attack battery.
// Benchmarks run on the worker pool with splitmix-derived per-benchmark
// seeds; output is emitted in suite order regardless of worker count.
func Structural(ctx context.Context, suite []netlistgen.Benchmark, skewBits float64, seed int64, workers int, w io.Writer) ([]StructuralRow, error) {
	if w != nil {
		fmt.Fprintln(w, "bench       critical-eliminated  valkyrie-resisted  spi-wrong  removal-resisted")
	}
	type out struct {
		row  StructuralRow
		ok   bool
		text []byte
	}
	var rows []StructuralRow
	exec.Collect(ctx, workers, len(suite), func(ctx context.Context, i int) out {
		b := suite[i]
		bseed := exec.DeriveSeed(seed, i)
		var buf bytes.Buffer
		c := b.Build()
		opt := core.DefaultOptions()
		opt.TargetSkewBits = skewBits
		opt.Seed = bseed
		opt.AllowDirect = false
		res, err := core.Lock(ctx, c, opt)
		if err != nil {
			fmt.Fprintf(&buf, "%-10s: %v\n", b.Name, err)
			return out{text: buf.Bytes()}
		}
		l := res.Locked
		row := StructuralRow{Bench: b.Name}
		fopt := cec.DefaultFindOptions()
		fopt.Seed = bseed
		row.CriticalEliminated = criticalEliminated(ctx, l, c, c.Output(res.Report.ProtectedOutput), fopt)
		copt := cec.SweepOptions()
		copt.Budget = exec.WithConflicts(50000)
		vr := attacks.Valkyrie(ctx, l, c, 6, 64, bseed, copt)
		row.ValkyrieResisted = resisted(vr.FoundPair, vr.Undecided)
		spi := attacks.SPI(l, 6)
		ok, _ := l.VerifyKey(c, spi.Key)
		row.SPIWrong = !ok
		sps := attacks.SPS(l, 64, bseed, 8)
		rm := attacks.Removal(ctx, l, c, sps.Candidates, copt)
		row.RemovalResisted = resisted(rm.Success, rm.Undecided)
		fmt.Fprintf(&buf, "%-10s %19v  %17v  %9v  %16v\n",
			b.Name, row.CriticalEliminated, row.ValkyrieResisted, row.SPIWrong, row.RemovalResisted)
		return out{row: row, ok: true, text: buf.Bytes()}
	}, func(i int, o out) {
		if o.ok {
			rows = append(rows, o.row)
		}
		if w != nil {
			w.Write(o.text)
		}
	})
	return rows, ctx.Err()
}
