package obfuslock

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section V) at laptop scale. The circuits come from the
// reduced-size suite so `go test -bench=.` finishes in minutes; run the
// full-size sweep with `go run ./cmd/attack -table1` (and -fig4/-fig5/
// -structural). EXPERIMENTS.md records paper-vs-measured for every row.
// The benchmarks write no file: the solver work and allocations of the
// SAT-heavy ones are pinned by deterministic tests (solverwork_test.go,
// and internal/attacks for the batched DIP loop), and the pipeline's
// end-to-end numbers come from the benchmark/ module.

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"obfuslock/internal/aig"
	"obfuslock/internal/attacks"
	"obfuslock/internal/cec"
	"obfuslock/internal/core"
	"obfuslock/internal/exec"
	"obfuslock/internal/experiments"
	"obfuslock/internal/lockbase"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
	"obfuslock/internal/rewrite"
	"obfuslock/internal/sat"
	"obfuslock/internal/techmap"
)

// benchBudget bounds each attack cell: the paper used a 3 h timeout; the
// scaled harness uses seconds with a DIP cap far below 2^skew, so the
// whole suite fits inside go test's default 10-minute package timeout.
var benchBudget = experiments.Budget{
	Timeout:       10 * time.Second,
	MaxIterations: 60,
}

var benchSkews = []float64{8, 12}

// suiteByName picks reduced-suite circuits by name. Only circuits with
// enough inputs appear in the attack experiments: min(2^s, 2^(keybits−s))
// must stay above the attack budgets, and 12-input toys cannot hold 12
// bits of skewness (the paper's b09/b10 remark), so they would only
// measure the scale artifact. s9234-s (0.2–1.1 s per 8-bit lock over
// seeds 1–3) is reserved for Fig. 4; run the full-size sweeps with
// cmd/attack.
func suiteByName(names ...string) []netlistgen.Benchmark {
	var out []netlistgen.Benchmark
	for _, bm := range netlistgen.SmallSuite() {
		for _, n := range names {
			if bm.Name == n {
				out = append(out, bm)
			}
		}
	}
	return out
}

// BenchmarkTableI regenerates Table I (key efficiency, lock runtime, and
// SAT/AppSAT resilience, whole-circuit and sub-circuit attacker
// strategies) on the reduced suite.
func BenchmarkTableI(b *testing.B) {
	fmt.Fprintln(os.Stderr, experiments.TableIHeader)
	for _, bm := range suiteByName("c7552-s", "max-s", "b14-s") {
		for _, s := range benchSkews {
			b.Run(fmt.Sprintf("%s/skew%g", bm.Name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					row, err := experiments.TableIEntry(context.Background(), bm, s, 1, benchBudget, nil)
					if err != nil {
						b.Skip(err) // e.g. too few inputs for the skew target
					}
					if i == 0 {
						fmt.Fprintln(os.Stderr, row)
						b.ReportMetric(float64(row.KeyBits), "keybits")
						b.ReportMetric(row.SkewBits, "skewbits")
						b.ReportMetric(row.LockTime.Seconds(), "lock-s")
					}
				}
			})
		}
	}
}

// BenchmarkFig4 regenerates the Fig. 4 node-statistics panels on the
// s9234-class circuit: before structural transformation the critical node
// is discoverable; after it is eliminated.
func BenchmarkFig4(b *testing.B) {
	bm := netlistgen.SmallSuite()[0] // s9234-s
	c := bm.Build()
	for i := 0; i < b.N; i++ {
		before, after, err := experiments.Fig4(context.Background(), c, 10, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Fprintf(os.Stderr, "Fig4 %s before: skew-hist=%v key-hist=%v critical-visible=%v\n",
				bm.Name, before.SkewHist, before.KeyHist, before.CriticalVisible)
			fmt.Fprintf(os.Stderr, "Fig4 %s after:  skew-hist=%v key-hist=%v critical-visible=%v\n",
				bm.Name, after.SkewHist, after.KeyHist, after.CriticalVisible)
			if before.CriticalVisible != experiments.Yes {
				b.Error("naive double-flip should expose the critical node")
			}
			if after.CriticalVisible != experiments.No {
				b.Error("structural transformation left a critical node")
			}
		}
	}
}

// BenchmarkFig5 regenerates the Fig. 5 area/power/delay overheads across
// skewness levels.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(context.Background(), suiteByName("c7552-s", "max-s"), benchSkews, 1, 0, os.Stderr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			var area, power float64
			for _, r := range rows {
				area += r.Area.AreaPct
				power += r.Area.PowerPct
			}
			b.ReportMetric(area/float64(len(rows)), "avg-area-%")
			b.ReportMetric(power/float64(len(rows)), "avg-power-%")
		}
	}
}

// BenchmarkStructuralAttacks regenerates the structural-security
// evaluation: critical-node elimination, Valkyrie, SPI and removal.
func BenchmarkStructuralAttacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Structural(context.Background(), suiteByName("c7552-s", "max-s"), 10, 1, 0, os.Stderr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.CriticalEliminated != experiments.Yes || r.ValkyrieResisted != experiments.Yes || !r.SPIWrong || r.RemovalResisted != experiments.Yes {
					b.Errorf("%s: structural resistance violated: %+v", r.Bench, r)
				}
			}
		}
	}
}

// BenchmarkLockRuntime measures the "Run." column of Table I in isolation:
// ObfusLock encryption time per benchmark and skewness level.
func BenchmarkLockRuntime(b *testing.B) {
	for _, bm := range suiteByName("c7552-s", "max-s") {
		c := bm.Build()
		for _, s := range benchSkews {
			if float64(c.NumInputs()) < s+4 {
				continue
			}
			b.Run(fmt.Sprintf("%s/skew%g", bm.Name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opt := core.DefaultOptions()
					opt.TargetSkewBits = s
					opt.Seed = int64(i + 1)
					opt.AllowDirect = false
					if _, err := core.Lock(context.Background(), c, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLock locks the four circuits TestLockFingerprintPinned pins,
// the attack-dip workload's set, at 8 bits with their CLI seeds: one op
// is all four locks. It profiles the lock layer without the pipeline
// benchmark, e.g. with
//
//	go test -run '^$' -bench BenchmarkLock$ -benchtime 5x -cpuprofile cpu.out .
func BenchmarkLock(b *testing.B) {
	type job struct {
		c    *aig.AIG
		seed int64
	}
	var jobs []job
	for i, bm := range netlistgen.SmallSuite() {
		switch bm.Name {
		case "c7552-s", "c6288-s", "max-s", "square-s":
			jobs = append(jobs, job{bm.Build(), exec.DeriveSeed(1, i)})
		}
	}
	if len(jobs) != 4 {
		b.Fatalf("found %d of the 4 circuits in the suite", len(jobs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			opt := core.DefaultOptions()
			opt.TargetSkewBits = 8
			opt.Seed = j.seed
			opt.AllowDirect = false
			if _, err := core.Lock(context.Background(), j.c, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblation quantifies the design choices DESIGN.md calls out:
// the cost of the final rewriting pass and of the structural blending
// (versus the naive double-flip), in nodes and mapped area.
func BenchmarkAblation(b *testing.B) {
	c := netlistgen.SmallSuite()[1].Build() // adder/comparator
	origArea := techmap.Analyze(c, 8, 1).AreaUM2
	variants := []struct {
		name string
		opt  func() core.Options
	}{
		{"full", func() core.Options {
			o := core.DefaultOptions()
			return o
		}},
		{"no-final-rewrite", func() core.Options {
			o := core.DefaultOptions()
			o.FinalRewrite = false
			return o
		}},
		{"naive-double-flip", func() core.Options {
			o := core.DefaultOptions()
			o.DisableObfuscation = true
			return o
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := v.opt()
				opt.TargetSkewBits = 10
				opt.Seed = 3
				opt.AllowDirect = false
				res, err := core.Lock(context.Background(), c, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					area := techmap.Analyze(res.Locked.Enc, 8, 1).AreaUM2
					b.ReportMetric(float64(res.Report.EncNodes), "nodes")
					b.ReportMetric((area-origArea)/origArea*100, "area-ovh-%")
				}
			}
		})
	}
}

// BenchmarkTheoryLemma1 checks the error-matrix shape of Lemma 1 on an
// exhaustively enumerable instance while timing the enumeration.
func BenchmarkTheoryLemma1(b *testing.B) {
	g := NewCircuit()
	in := g.AddInputs(6)
	g.AddOutput(g.AndN(in[:4]...), "f") // M = 4
	opt := DefaultOptions()
	opt.TargetSkewBits = 3
	opt.Seed = 7
	res, err := Lock(g, opt)
	if err != nil {
		b.Fatal(err)
	}
	l := res.Locked
	for i := 0; i < b.N; i++ {
		total := 1 << 6
		bad := 0
		x := make([]bool, 6)
		k := make([]bool, 6)
		for xm := 0; xm < total; xm++ {
			for j := 0; j < 6; j++ {
				x[j] = xm>>j&1 == 1
			}
			want := g.Eval(x)[0]
			errs := 0
			for km := 0; km < total; km++ {
				for j := 0; j < 6; j++ {
					k[j] = km>>j&1 == 1
				}
				full := append(append([]bool{}, x...), k...)
				if l.Enc.Eval(full)[0] != want {
					errs++
				}
			}
			if errs != 4 && errs != total-4 {
				bad++
			}
		}
		if bad != 0 {
			b.Fatalf("%d rows violate Lemma 1", bad)
		}
	}
}

// BenchmarkFraigCEC compares the monolithic-miter equivalence check with
// the swept (fraig) mode on an obfuscated/rewritten pair from the
// experiment suite: the two sides share most of their logic, so sweeping
// collapses the combined graph before the final solve — the tentpole
// claim of the SAT-sweeping engine. TestSolverWorkPinned pins both
// modes' solver work per op.
func BenchmarkFraigCEC(b *testing.B) {
	c, rw := fraigCECPair()
	for _, mode := range []string{"monolithic", "swept"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var solver sat.Stats
			for i := 0; i < b.N; i++ {
				solver = solver.Add(runFraigCEC(b, c, rw, mode).SolverStats)
			}
			reportSolverWork(b, solver)
		})
	}
}

// fraigCECPair is BenchmarkFraigCEC's instance: max-s against its
// functionally rewritten and balanced self.
func fraigCECPair() (c, rw *Circuit) {
	c = suiteByName("max-s")[0].Build()
	return c, rewrite.Balance(rewrite.FunctionalRewrite(c, 5))
}

// runFraigCEC runs one BenchmarkFraigCEC op in mode "monolithic" or
// "swept", with the simulation pre-filter off so the SAT paths do the
// whole proof.
func runFraigCEC(tb testing.TB, c, rw *Circuit, mode string) cec.Result {
	opt := cec.DefaultOptions()
	if mode == "swept" {
		opt = cec.SweepOptions()
	}
	opt.SimWords = 0
	r, err := cec.Check(context.Background(), c, rw, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if !r.Decided || !r.Equivalent {
		tb.Fatal("rewritten pair must be proven equivalent")
	}
	return r
}

// BenchmarkSATAttackBatched measures the batched-DIP-pipeline tentpole
// head-to-head: the classic serial loop (DIPBatch=1) versus the batched
// default on the same SARLock cell. A 12-bit SARLock forces one DIP per
// wrong key (~2^12 iterations) — the worst case the batching targets.
// The protected width equals the input count, so no two patterns share
// a wrong key and both modes need exactly the same DIP set; the queries
// metric shows the equal oracle work. internal/attacks'
// TestSATAttackBatchedEqualQueriesOnSARLock gates the same comparison on
// an 8-bit instance.
func BenchmarkSATAttackBatched(b *testing.B) {
	orig := netlistgen.Multiplier(6)
	l, err := lockbase.SARLock(orig, 12, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		batch int
	}{{"serial", 1}, {"batched", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var solver sat.Stats
			var queries int
			for i := 0; i < b.N; i++ {
				opt := attacks.DefaultIOOptions()
				opt.MaxIterations = 8000 // > 2^12
				opt.DIPBatch = mode.batch
				oracle := locking.NewOracle(orig)
				r := attacks.SATAttack(context.Background(), l, oracle, opt)
				if !r.Exact {
					b.Fatalf("attack must finish the 12-bit SARLock: %+v", r)
				}
				solver = solver.Add(r.SolverStats)
				queries = r.Queries
			}
			b.ReportMetric(float64(queries), "queries")
			reportSolverWork(b, solver)
		})
	}
}

// BenchmarkSATAttackSimp measures the preprocessing tentpole where it
// matters most: the incremental DIP loop of the SAT attack, whose miter
// grows by two key cones per iteration. A 6-bit SARLock forces ~2^6
// iterations, so one op is dominated by solver search rather than
// construction. TestSolverWorkPinned pins the on/off solver work and
// TestSATAttackSimpAllocCeiling the allocations per op; the wall-time
// difference between the two modes is within run noise.
func BenchmarkSATAttackSimp(b *testing.B) {
	l, oracle := simpAttackInstance(b)
	for _, mode := range []string{"on", "off"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var solver sat.Stats
			for i := 0; i < b.N; i++ {
				solver = solver.Add(runSimpAttack(b, l, oracle, mode).SolverStats)
			}
			reportSolverWork(b, solver)
		})
	}
}

// simpAttackInstance is BenchmarkSATAttackSimp's instance: a 6-bit
// SARLock on Multiplier(4) and its oracle.
func simpAttackInstance(tb testing.TB) (*locking.Locked, *locking.Oracle) {
	orig := netlistgen.Multiplier(4)
	l, err := lockbase.SARLock(orig, 6, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return l, locking.NewOracle(orig)
}

// runSimpAttack runs one BenchmarkSATAttackSimp op with preprocessing
// "on" or "off".
func runSimpAttack(tb testing.TB, l *locking.Locked, oracle *locking.Oracle, mode string) attacks.IOResult {
	opt := attacks.DefaultIOOptions()
	opt.MaxIterations = 200 // > 2^6
	// Pin the classic serial DIP loop: this instance isolates the simp
	// on/off delta, and the protected width (6) is narrower than the
	// input count (8), so batched enumeration would burn iterations on
	// DIPs that collide on the protected bits.
	opt.DIPBatch = 1
	if mode == "off" {
		opt.NoSimp = true
	}
	r := attacks.SATAttack(context.Background(), l, oracle, opt)
	if !r.Exact {
		tb.Fatalf("attack must finish the 6-bit SARLock: %+v", r)
	}
	return r
}

// reportSolverWork reports the per-op solver work behind a benchmark.
func reportSolverWork(b *testing.B, st sat.Stats) {
	n := float64(max(b.N, 1))
	b.ReportMetric(float64(st.Decisions)/n, "decisions/op")
	b.ReportMetric(float64(st.Propagations)/n, "props/op")
	b.ReportMetric(float64(st.Conflicts)/n, "conflicts/op")
}
