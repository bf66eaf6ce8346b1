package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/netlistgen"
	"obfuslock/internal/sample"
	"obfuslock/internal/skew"
)

// lockAndVerify locks c and checks key correctness plus wrong-key breakage.
func lockAndVerify(t *testing.T, c *aig.AIG, opt Options) *Result {
	t.Helper()
	res, err := Lock(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	l := res.Locked
	if err := l.Verify(c); err != nil {
		t.Fatalf("correct key: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	broken := 0
	for trial := 0; trial < 3; trial++ {
		wrong := append([]bool(nil), l.Key...)
		wrong[rng.Intn(len(wrong))] = !wrong[rng.Intn(len(wrong))]
		same := true
		for i := range wrong {
			if wrong[i] != l.Key[i] {
				same = false
			}
		}
		if same {
			continue
		}
		b, err := l.WrongKeyIsWrong(c, wrong)
		if err != nil {
			t.Fatal(err)
		}
		if b {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("no sampled wrong key corrupts the circuit")
	}
	return res
}

func TestLockDoubleFlipAdder(t *testing.T) {
	c := netlistgen.AdderCmp(12) // 25 inputs
	opt := DefaultOptions()
	opt.TargetSkewBits = 10
	opt.Seed = 1
	opt.AllowDirect = false
	res := lockAndVerify(t, c, opt)
	if res.Report.Mode != "double-flip" {
		t.Fatalf("mode = %s", res.Report.Mode)
	}
	if res.Report.SkewBits < 10 {
		t.Fatalf("skew %.1f bits < target 10", res.Report.SkewBits)
	}
	if res.Locked.KeyBits < 10 {
		t.Fatalf("key bits %d implausibly small for 10-bit skew", res.Locked.KeyBits)
	}
	if res.Report.KeyBits != res.Locked.KeyBits {
		t.Fatal("report/locked key bits disagree")
	}
}

func TestLockMultiplier(t *testing.T) {
	c := netlistgen.Multiplier(6) // 12 inputs
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 2
	opt.AllowDirect = false
	res := lockAndVerify(t, c, opt)
	if res.Report.EncNodes <= res.Report.OrigNodes {
		t.Log("locked netlist not larger — suspicious but not fatal (rewriting may shrink)")
	}
}

func TestLockDeterministicForSeed(t *testing.T) {
	c := netlistgen.Multiplier(6)
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 3
	opt.AllowDirect = false
	r1, err := Lock(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Lock(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Locked.KeyBits != r2.Locked.KeyBits || r1.Locked.Enc.NumNodes() != r2.Locked.Enc.NumNodes() {
		t.Fatal("same seed produced different locks")
	}
	for i := range r1.Locked.Key {
		if r1.Locked.Key[i] != r2.Locked.Key[i] {
			t.Fatal("same seed produced different keys")
		}
	}
}

func TestLockRejectsTooFewInputs(t *testing.T) {
	c := netlistgen.Multiplier(3) // 6 inputs
	opt := DefaultOptions()
	opt.TargetSkewBits = 20
	opt.AllowDirect = false
	if _, err := Lock(context.Background(), c, opt); err == nil {
		t.Fatal("expected failure for 20-bit target on a 6-input circuit")
	}
}

func TestLockDirectOnSkewedCircuit(t *testing.T) {
	// A circuit whose only output is already highly skewed: AND of 16
	// inputs (16 bits of skewness).
	g := aig.New()
	in := g.AddInputs(16)
	g.AddOutput(g.AndN(in...), "f")
	opt := DefaultOptions()
	opt.TargetSkewBits = 12
	opt.Seed = 4
	res := lockAndVerify(t, g, opt)
	if res.Report.Mode != "direct" {
		t.Fatalf("mode = %s, want direct", res.Report.Mode)
	}
	if res.Locked.KeyBits != 16 {
		t.Fatalf("direct mode key bits = %d, want 16", res.Locked.KeyBits)
	}
}

func TestLockSubCircuit(t *testing.T) {
	c := netlistgen.AdderCmp(16) // 33 inputs
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 5
	opt.SubCircuit = true
	opt.SubCircuitMinCut = 12
	res := lockAndVerify(t, c, opt)
	if res.Report.Mode != "sub-circuit" {
		t.Fatalf("mode = %s", res.Report.Mode)
	}
	if res.Report.CutWidth < 12 {
		t.Fatalf("cut width %d < requested 12", res.Report.CutWidth)
	}
	if res.Report.CutLog2Reach < 0.7*float64(res.Report.CutWidth)-1e-9 {
		t.Fatalf("cut reachability %.1f too low for width %d",
			res.Report.CutLog2Reach, res.Report.CutWidth)
	}
}

// xorBlend must preserve the function for all rule paths.
func TestXorBlendEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		g := aig.New()
		lits := g.AddInputs(6)
		for i := 0; i < 25; i++ {
			pick := func() aig.Lit {
				l := lits[rng.Intn(len(lits))]
				if rng.Intn(2) == 0 {
					l = l.Not()
				}
				return l
			}
			switch rng.Intn(4) {
			case 0, 1:
				lits = append(lits, g.And(pick(), pick()))
			case 2:
				lits = append(lits, g.Xor(pick(), pick()))
			default:
				lits = append(lits, g.Maj(pick(), pick(), pick()))
			}
		}
		f := lits[len(lits)-1]
		tt := lits[len(lits)-2]
		b := &blendBudget{
			reshape: rng.Intn(20),
			elim:    rng.Intn(40),
			rng:     rand.New(rand.NewSource(int64(trial))),
		}
		blended := xorBlend(g, f, tt, b)
		want := g.Xor(f, tt)
		// Exhaustive check over the 6 inputs.
		g.AddOutput(blended, "blend")
		g.AddOutput(want, "want")
		pat := make([]bool, 6)
		for m := 0; m < 64; m++ {
			for i := 0; i < 6; i++ {
				pat[i] = m>>i&1 == 1
			}
			out := g.Eval(pat)
			no := g.NumOutputs()
			if out[no-2] != out[no-1] {
				t.Fatalf("trial %d: xorBlend wrong at %v (reshape=%d elim=%d)",
					trial, pat, b.reshape, b.elim)
			}
		}
	}
}

// Lemma 1: for input permutation encryption of a single-output function
// with |f^1| = M over m inputs, every row of the error matrix has exactly
// M or 2^m - M errors, and the counts match.
func TestLemma1ErrorMatrix(t *testing.T) {
	m := 6
	g := aig.New()
	in := g.AddInputs(m)
	g.AddOutput(g.AndN(in[:4]...), "f") // M = 2^(6-4) = 4
	opt := DefaultOptions()
	opt.TargetSkewBits = 3
	opt.Seed = 7
	res, err := Lock(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Mode != "direct" {
		t.Fatalf("expected direct mode, got %s", res.Report.Mode)
	}
	l := res.Locked
	M := 4
	total := 1 << m
	rowsWithM, rowsWithCoM := 0, 0
	x := make([]bool, m)
	k := make([]bool, m)
	for xm := 0; xm < total; xm++ {
		for i := 0; i < m; i++ {
			x[i] = xm>>i&1 == 1
		}
		want := g.Eval(x)[0]
		errs := 0
		for km := 0; km < total; km++ {
			for i := 0; i < m; i++ {
				k[i] = km>>i&1 == 1
			}
			full := append(append([]bool{}, x...), k...)
			if l.Enc.Eval(full)[0] != want {
				errs++
			}
		}
		switch errs {
		case M:
			rowsWithM++
		case total - M:
			rowsWithCoM++
		default:
			t.Fatalf("row %d has %d errors, want %d or %d", xm, errs, M, total-M)
		}
	}
	// Lemma 1: M rows carry 2^m-M errors; 2^m-M rows carry M errors.
	if rowsWithCoM != M || rowsWithM != total-M {
		t.Fatalf("row distribution: %d rows with %d errs, %d rows with %d errs",
			rowsWithM, M, rowsWithCoM, total-M)
	}
}

// Lemma 2: the number of correct keys is at most h = min(M, 2^m - M).
func TestLemma2CorrectKeyBound(t *testing.T) {
	m := 6
	g := aig.New()
	in := g.AddInputs(m)
	g.AddOutput(g.AndN(in[:4]...), "f") // h = 4
	opt := DefaultOptions()
	opt.TargetSkewBits = 3
	opt.Seed = 8
	res, err := Lock(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	l := res.Locked
	correct := 0
	total := 1 << m
	k := make([]bool, m)
	x := make([]bool, m)
	for km := 0; km < total; km++ {
		for i := 0; i < m; i++ {
			k[i] = km>>i&1 == 1
		}
		ok := true
		for xm := 0; xm < total && ok; xm++ {
			for i := 0; i < m; i++ {
				x[i] = xm>>i&1 == 1
			}
			full := append(append([]bool{}, x...), k...)
			if l.Enc.Eval(full)[0] != g.Eval(x)[0] {
				ok = false
			}
		}
		if ok {
			correct++
		}
	}
	if correct < 1 || correct > 4 {
		t.Fatalf("correct keys = %d, want between 1 and h=4", correct)
	}
}

// The locking circuit skewness verified by splitting should be close to an
// exhaustive count on small cones.
func TestLockingCircuitSkewAccuracy(t *testing.T) {
	c := netlistgen.Multiplier(6) // 12 inputs
	work := c.Copy()
	lc, err := buildLockingCircuit(work, sample.NewPool(work), buildOptions{TargetBits: 7, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive probability of the root.
	probe := work.Copy()
	probe.AddOutput(lc.Root, "L")
	idx := probe.NumOutputs() - 1
	ones, total := 0, 0
	pat := make([]bool, work.NumInputs())
	for m := 0; m < 1<<uint(work.NumInputs()); m++ {
		for i := range pat {
			pat[i] = m>>uint(i)&1 == 1
		}
		if probe.Eval(pat)[idx] {
			ones++
		}
		total++
	}
	if ones == 0 {
		t.Fatal("locking circuit is constant false — invalid")
	}
	exact := skew.Bits(float64(ones) / float64(total))
	if exact < 6 {
		t.Fatalf("exact skew %.2f bits below target-1", exact)
	}
	if math.Abs(exact-lc.SkewBits) > 3 {
		t.Fatalf("estimated %.2f vs exact %.2f bits", lc.SkewBits, exact)
	}
}
