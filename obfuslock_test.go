package obfuslock

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"obfuslock/internal/cec"
	"obfuslock/internal/skew"
)

func TestFacadeRoundTrip(t *testing.T) {
	c := SmallBenchmarks()[1].Build() // small adder/comparator
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 1
	opt.AllowDirect = false
	res, err := Lock(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Locked.Verify(c); err != nil {
		t.Fatal(err)
	}
	// Locked netlist serializes and parses.
	var buf bytes.Buffer
	if err := WriteBench(&buf, res.Locked.Enc); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cec.Check(context.Background(), res.Locked.Enc, back, cec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equivalent {
		t.Fatal("bench round trip changed the locked netlist")
	}

	// The same lock under a 1 ms deadline stops promptly with an error.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := LockContext(ctx, c, opt); err == nil || ctx.Err() == nil {
		t.Fatalf("lock under a 1 ms deadline: err=%v ctx.Err()=%v, want both non-nil", err, ctx.Err())
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the deadline took %v to stop the lock", took)
	}
}

func TestFacadeAttackAndPPA(t *testing.T) {
	c := SmallBenchmarks()[1].Build()
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 2
	opt.AllowDirect = false
	res, err := Lock(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	aopt := DefaultAttackOptions()
	aopt.MaxIterations = 30
	satAttack, ok := AttackNamed("sat")
	if !ok {
		t.Fatal("sat attack missing from registry")
	}
	if _, ok := AttackNamed("portfolio"); ok {
		t.Fatal("portfolio is not a registered attack")
	}
	r := satAttack.Run(context.Background(), res.Locked, NewOracle(c), aopt)
	if r.Exact {
		t.Fatalf("8-bit lock fell in %d iterations", r.Iterations)
	}
	ov := ComparePPA(AnalyzePPA(c, 8, 1), AnalyzePPA(res.Locked.Enc, 8, 1))
	if ov.AreaPct < 0 {
		t.Fatalf("negative area overhead: %+v", ov)
	}
}

func TestFacadeBaselines(t *testing.T) {
	c := SmallBenchmarks()[2].Build() // small multiplier
	for name, opt := range map[string]SchemeOptions{
		"rll":     {KeyBits: 8, Seed: 1},
		"sarlock": {ProtWidth: 8, Seed: 1},
		"antisat": {ProtWidth: 6, Seed: 1},
		"ttlock":  {ProtWidth: 8, Seed: 1},
		"sfll-hd": {ProtWidth: 8, HammingDistance: 1, Seed: 1},
	} {
		l, err := LockWith(context.Background(), name, c, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := l.Verify(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "rll" && name != "sfll-hd" {
			continue // the point-function schemes are built to outlast the DIP cap
		}
		// The low-resilience baselines fall to the SAT attack within the cap.
		aopt := DefaultAttackOptions()
		aopt.MaxIterations = 200
		sat, _ := AttackNamed("sat")
		r := sat.Run(context.Background(), l, NewOracle(c), aopt)
		if !r.Exact || len(r.Key) != l.KeyBits {
			t.Fatalf("%s: SAT attack exact=%v key=%d bits after %d iterations, want an exact %d-bit key",
				name, r.Exact, len(r.Key), r.Iterations, l.KeyBits)
		}
		if ok, err := l.VerifyKey(c, r.Key); err != nil || !ok {
			t.Fatalf("%s: recovered key does not unlock the circuit (err=%v)", name, err)
		}
	}
}

func TestFacadeSkewness(t *testing.T) {
	c := NewCircuit()
	lits := make([]Lit, 0)
	_ = lits
	in := c.AddInputs(12)
	c.AddOutput(c.AndN(in...), "f")
	so := skew.DefaultSplittingOptions()
	so.Seed = 1
	bits := skew.SplittingBits(c, c.Output(0), so)
	if bits < 9 || bits > 15 {
		t.Fatalf("AND12 skewness = %.1f bits, want ~12", bits)
	}
}

func TestBenchmarksCatalog(t *testing.T) {
	names := []string{}
	for _, b := range Benchmarks() {
		names = append(names, b.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"s9234", "c7552", "c6288", "max", "square"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("catalog missing %s: %v", want, names)
		}
	}
}
