package obfuslock

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/attacks"
	"obfuslock/internal/cec"
	"obfuslock/internal/core"
	"obfuslock/internal/count"
	"obfuslock/internal/exec"
	"obfuslock/internal/experiments"
	"obfuslock/internal/lockbase"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
	"obfuslock/internal/obs"
	"obfuslock/internal/rewrite"
	"obfuslock/internal/sample"
	"obfuslock/internal/skew"
	"obfuslock/internal/techmap"
)

// lockBench locks the small adder/comparator at a fixed seed and returns
// the serialized locked netlist.
func lockBench(t *testing.T, tr *obs.Tracer) []byte {
	t.Helper()
	c := SmallBenchmarks()[1].Build()
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 5
	opt.AllowDirect = false
	opt.Trace = tr
	res, err := Lock(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBench(&buf, res.Locked.Enc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLockSeedByteIdentical pins the determinism contract: the same
// Options.Seed yields a byte-identical .bench serialization, with and
// without tracing (tracing must never influence randomized choices).
func TestLockSeedByteIdentical(t *testing.T) {
	a := lockBench(t, nil)
	b := lockBench(t, nil)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different .bench output")
	}
	traced := lockBench(t, obs.New(obs.NewCollector()))
	if !bytes.Equal(a, traced) {
		t.Fatal("enabling tracing changed the locked netlist")
	}
}

// TestAttackTranscriptDeterministic pins the attack-side contract: at a
// fixed seed the SAT-attack transcript (iteration and oracle-query
// counts) is reproducible, and tracing does not perturb it.
func TestAttackTranscriptDeterministic(t *testing.T) {
	c := SmallBenchmarks()[1].Build()
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 5
	opt.AllowDirect = false
	res, err := Lock(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	satAttack, ok := AttackNamed("sat")
	if !ok {
		t.Fatal("sat attack missing from registry")
	}
	run := func(tr *obs.Tracer) AttackResult {
		aopt := DefaultAttackOptions()
		aopt.MaxIterations = 25
		aopt.Seed = 7
		aopt.Trace = tr
		return satAttack.Run(context.Background(), res.Locked, NewOracle(c), aopt)
	}
	r1 := run(nil)
	r2 := run(nil)
	if r1.Iterations != r2.Iterations || r1.Queries != r2.Queries {
		t.Fatalf("same seed, different transcript: (%d,%d) vs (%d,%d)",
			r1.Iterations, r1.Queries, r2.Iterations, r2.Queries)
	}
	col := obs.NewCollector()
	r3 := run(obs.New(col))
	if r3.Iterations != r1.Iterations || r3.Queries != r1.Queries {
		t.Fatalf("tracing changed the transcript: (%d,%d) vs (%d,%d)",
			r3.Iterations, r3.Queries, r1.Iterations, r1.Queries)
	}
	if got := len(col.EventsNamed("dip")); got != r3.Iterations {
		t.Fatalf("%d dip events for %d iterations", got, r3.Iterations)
	}
}

// batchedKeysAt attacks 50 random lock instances at the given worker
// count, each once with the classic serial loop (DIPBatch=1) and once
// with the batched default, and returns the recovered keys. It fails
// the test if any attack is inexact or any instance's serial and
// batched keys differ.
func batchedKeysAt(t *testing.T, workers int) [][]bool {
	t.Helper()
	const instances = 50
	keys := make([][]bool, instances)
	fail := make([]error, instances)
	exec.Collect(context.Background(), workers, instances,
		func(ctx context.Context, i int) []bool {
			// Alternate schemes; every instance gets its own seed, so the
			// 50 locks (key values, inserted gates) are all distinct.
			var orig = netlistgen.Multiplier(3) // 6 inputs
			var l *locking.Locked
			var err error
			if i%2 == 0 {
				l, err = lockbase.RLL(orig, 10, int64(i+1))
			} else {
				l, err = lockbase.SARLock(orig, 6, int64(i+1))
			}
			if err != nil {
				fail[i] = err
				return nil
			}
			run := func(batch int) []bool {
				opt := attacks.DefaultIOOptions()
				opt.MaxIterations = 200 // > 2^6 SARLock DIPs
				opt.DIPBatch = batch
				r := attacks.SATAttack(ctx, l, locking.NewOracle(orig), opt)
				if !r.Exact {
					fail[i] = fmt.Errorf("instance %d batch=%d: not exact: %+v", i, batch, r)
					return nil
				}
				return r.Key
			}
			serial, batched := run(1), run(0)
			if fail[i] == nil && !equalBools(serial, batched) {
				fail[i] = fmt.Errorf("instance %d: serial key %v != batched key %v", i, serial, batched)
			}
			return batched
		},
		func(i int, k []bool) { keys[i] = k })
	for _, err := range fail {
		if err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchedKeysByteIdentical pins the batched-oracle determinism
// contract: on 50 random lock instances (alternating RLL and SARLock)
// the batched DIP pipeline recovers exactly the key the classic serial
// loop recovers, and the whole sweep is byte-identical at 1 and 4
// workers. Canonical key extraction makes the key a property of the
// locked circuit alone, so neither the enumeration width nor the
// scheduling of concurrent attacks may leak into the result.
func TestBatchedKeysByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("50-instance attack sweep")
	}
	k1 := batchedKeysAt(t, 1)
	k4 := batchedKeysAt(t, 4)
	for i := range k1 {
		if !equalBools(k1[i], k4[i]) {
			t.Fatalf("instance %d: key differs between 1 and 4 workers: %v vs %v", i, k1[i], k4[i])
		}
	}
}

// sweepAt runs a small deterministic Table I sweep at the given worker
// count and returns the rendered table and metrics.json bytes.
func sweepAt(t *testing.T, workers int) (table, metrics []byte) {
	t.Helper()
	suite := SmallBenchmarks()[:2]
	budget := experiments.Budget{
		MaxIterations: 40,
		Workers:       workers,
		Deterministic: true,
	}
	var tbl bytes.Buffer
	rows, err := experiments.TableI(context.Background(), suite, []float64{8}, 5, budget, &tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("sweep produced no rows")
	}
	var mj bytes.Buffer
	if err := experiments.WriteMetricsJSON(&mj, rows); err != nil {
		t.Fatal(err)
	}
	return tbl.Bytes(), mj.Bytes()
}

// TestTableIWorkersByteIdentical pins the parallel-sweep determinism
// contract: a deterministic Table I sweep emits byte-identical tables and
// metrics.json at any worker count, because every cell derives its seed
// from the master seed and its cell index, and rows are emitted in cell
// order regardless of completion order.
func TestTableIWorkersByteIdentical(t *testing.T) {
	tbl1, mj1 := sweepAt(t, 1)
	tbl4, mj4 := sweepAt(t, 4)
	if !bytes.Equal(tbl1, tbl4) {
		t.Fatalf("table differs between 1 and 4 workers:\n--- workers=1\n%s--- workers=4\n%s", tbl1, tbl4)
	}
	if !bytes.Equal(mj1, mj4) {
		t.Fatalf("metrics.json differs between 1 and 4 workers:\n--- workers=1\n%s--- workers=4\n%s", mj1, mj4)
	}
	if bytes.Contains(tbl1, []byte("s  ")) && !bytes.Contains(tbl1, []byte("-")) {
		t.Fatal("deterministic table still renders wall-clock lock cells")
	}
	if !bytes.Contains(mj1, []byte(`"lock_seconds": 0`)) {
		t.Fatal("deterministic metrics.json carries non-zero lock_seconds")
	}
}

// querySuite is a purpose-sized circuit set for the query determinism
// check: big enough that every query layer does real SAT work, small
// enough that two full renders stay in seconds. The reduced benchmark
// suite is far too slow here — projected model counting alone takes
// minutes per 48-input control circuit.
func querySuite() []netlistgen.Benchmark {
	return []netlistgen.Benchmark{
		{Name: "mult4", Build: func() *aig.AIG { return netlistgen.Multiplier(4) }},
		{Name: "addcmp6", Build: func() *aig.AIG { return netlistgen.AdderCmp(6) }},
		{Name: "max3x8", Build: func() *aig.AIG { return netlistgen.Max(3, 8) }},
	}
}

// renderQuerySuite runs CEC, splitting skewness, projected counting,
// witness sampling and techmap PPA on every suite circuit at the given
// worker count and returns the rendered report. Each cell appears twice
// in the task list, so at workers > 1 identical queries run concurrently
// and must agree.
func renderQuerySuite(t *testing.T, workers int) []byte {
	t.Helper()
	ctx := context.Background()
	suite := querySuite()

	cell := func(i int) string {
		b := suite[i%len(suite)]
		c := b.Build()
		var sb strings.Builder

		// CEC: the circuit against a rewritten (equivalent) copy.
		rw := rewrite.FunctionalRewrite(c, 7)
		r, err := cec.Check(ctx, c, rw, DefaultCECOptions())
		if err != nil {
			t.Error(err)
			return ""
		}
		fmt.Fprintf(&sb, "%s cec eq=%v decided=%v\n", b.Name, r.Equivalent, r.Decided)

		// Skewness: splitting estimate of output 0.
		so := skew.DefaultSplittingOptions()
		so.Seed = 3
		fmt.Fprintf(&sb, "%s skew bits=%.6f\n", b.Name, skew.SplittingBits(c, c.Output(0), so))

		// Counting: projected models of output 0, and reachable patterns on
		// the output cut.
		mo := count.DefaultOptions()
		mo.Pivot = 12
		mo.Trials = 3
		mo.Budget = exec.WithConflicts(50000)
		mo.Seed = 2
		mr := count.Models(ctx, c, c.Output(0), mo)
		fmt.Fprintf(&sb, "%s count log2=%.6f exact=%v decided=%v\n", b.Name, mr.Log2Count, mr.Exact, mr.Decided)
		rr := count.ReachablePatterns(ctx, c, []Lit{c.Output(0), c.Output(c.NumOutputs() - 1)}, mo)
		fmt.Fprintf(&sb, "%s reach log2=%.6f decided=%v\n", b.Name, rr.Log2Count, rr.Decided)

		// Witnesses: one cube-sampler pool draw.
		wit := sample.NewPool(c).Sampler(c.Output(0), 11).Sample(4)
		fmt.Fprintf(&sb, "%s pool n=%d", b.Name, len(wit))
		for _, w := range wit {
			sb.WriteByte(' ')
			for _, v := range w {
				if v {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
		}
		sb.WriteByte('\n')

		// Techmap: the PPA report of the mapped netlist.
		fmt.Fprintf(&sb, "%s ppa %s\n", b.Name, techmap.Analyze(c, 4, 1))
		return sb.String()
	}

	n := 2 * len(suite) // every cell twice: concurrent identical queries
	parts := make([]string, n)
	exec.Collect(ctx, workers, n, func(ctx context.Context, i int) string {
		return cell(i)
	}, func(i int, s string) { parts[i] = s })

	var buf bytes.Buffer
	for i := 0; i < len(suite); i++ {
		if parts[i] != parts[i+len(suite)] {
			t.Errorf("cell %d disagrees with its duplicate:\n%s---\n%s", i, parts[i], parts[i+len(suite)])
		}
		buf.WriteString(parts[i])
	}
	return buf.Bytes()
}

// TestQuerySuiteWorkersByteIdentical pins that concurrent identical
// cec/skew/count/sample/techmap queries render identical bytes, at 1 and
// 4 workers.
func TestQuerySuiteWorkersByteIdentical(t *testing.T) {
	w1 := renderQuerySuite(t, 1)
	w4 := renderQuerySuite(t, 4)
	if !bytes.Equal(w1, w4) {
		t.Fatalf("output differs between 1 and 4 workers:\n--- w1\n%s--- w4\n%s", w1, w4)
	}
}

// TestLockFingerprintPinned pins lock identity: four SmallSuite circuits
// locked at 8 bits the way the pipeline benchmark locks them (its seed
// exec.DeriveSeed(1, suite index), AllowDirect off) must keep their
// locked netlist's fingerprint and reported skew. A change that moves a
// lock on purpose states the new values; one that does so by accident,
// such as a witness sampler whose solver state leaks between estimates,
// fails here.
func TestLockFingerprintPinned(t *testing.T) {
	want := map[string]struct {
		fp   string
		skew float64
	}{
		"c7552-s":  {"8749b3f8c304a29eae6cc065673f0b75", 8.219529858069443},
		"c6288-s":  {"5e91b3669819542b7a7e7fd57fbb3e2f", 10.889068878245755},
		"max-s":    {"43b18923c8907af0413d5188ca0d685c", 8.490123034577753},
		"square-s": {"52777283af95f50bd8d8f1f9609c0c50", 8.32560021491411},
	}
	seen := 0
	for i, b := range netlistgen.SmallSuite() {
		w, ok := want[b.Name]
		if !ok {
			continue
		}
		seen++
		opt := core.DefaultOptions()
		opt.TargetSkewBits = 8
		opt.Seed = exec.DeriveSeed(1, i)
		opt.AllowDirect = false
		res, err := core.Lock(context.Background(), b.Build(), opt)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if fp := res.Locked.Enc.Fingerprint().String(); fp != w.fp || res.Report.SkewBits != w.skew {
			t.Errorf("%s: fingerprint %s, skew %v bits; want %s, %v", b.Name, fp, res.Report.SkewBits, w.fp, w.skew)
		}
	}
	if seen != len(want) {
		t.Fatalf("found %d of the %d pinned circuits in the suite", seen, len(want))
	}
}
