package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/cec"
	"obfuslock/internal/exec"
	"obfuslock/internal/netlistgen"
	"obfuslock/internal/sim"
)

// A protected output whose root also drives a second primary output keeps
// F in every netlist the blend can produce: the lock exhausts its attempts
// and must report the surviving critical node, not a clean lock.
func TestLockReportsSurvivingCriticalNode(t *testing.T) {
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 2
	opt.AllowDirect = false

	c := netlistgen.Multiplier(6)
	res, err := Lock(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CriticalNode != CriticalEliminated || res.Report.BlendAttempts < 1 {
		t.Fatalf("plain multiplier: critical=%q after %d attempts, want eliminated",
			res.Report.CriticalNode, res.Report.BlendAttempts)
	}

	c = netlistgen.Multiplier(6)
	po := pickProtectedOutput(c)
	c.AddOutput(c.Output(po), "dup")
	opt.ProtectedOutput = po
	res, err = Lock(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CriticalNode != CriticalSurvives {
		t.Fatalf("critical=%q, want %q", res.Report.CriticalNode, CriticalSurvives)
	}
	if res.Report.BlendAttempts != 6 {
		t.Fatalf("blend attempts = %d, want all 6", res.Report.BlendAttempts)
	}
	if err := res.Locked.Verify(c); err != nil {
		t.Fatalf("the shipped last candidate must still unlock: %v", err)
	}
}

// square-s has 12 inputs, so L's support can never exceed a 12.4-bit
// skew by any margin: the stall is the support margin's, not the skew's.
func TestLockStallNamesSupportMargin(t *testing.T) {
	var sq netlistgen.Benchmark
	for _, b := range netlistgen.SmallSuite() {
		if b.Name == "square-s" {
			sq = b
		}
	}
	opt := DefaultOptions()
	opt.TargetSkewBits = 10
	opt.Seed = exec.DeriveSeed(1, 5) // the CLI experiments' seed for square-s
	opt.AllowDirect = false
	_, err := Lock(context.Background(), sq.Build(), opt)
	if err == nil {
		t.Fatal("square-s locked at 10 bits; the stall this test pins is gone")
	}
	if !strings.Contains(err.Error(), "support margin") {
		t.Fatalf("error does not name the support margin: %v", err)
	}
}

// The critical-node scan agrees with exhaustive truth tables on small
// random locks. Specs are the protected output, L and every node of the
// original circuit; the ground truth is whether some node of the
// wrong-key-bound netlist computes the spec in either phase. The scan must
// never be undecided at these sizes.
func TestCriticalScanMatchesTruthTables(t *testing.T) {
	ctx := context.Background()
	locks, found, refuted := 0, 0, 0
	for seed := int64(1); seed <= 12 && locks < 4; seed++ {
		n := 12 + int(seed%3)
		c := netlistgen.Control(netlistgen.ControlSpec{Inputs: n, Outputs: 4, TargetNodes: 120, Seed: seed})
		opt := DefaultOptions()
		opt.TargetSkewBits = 5
		opt.Seed = seed
		opt.AllowDirect = false
		res, err := Lock(ctx, c, opt)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			continue
		}
		locks++
		bound := wrongKeyBound(res.Locked)
		in := sim.ExhaustiveInputs(n)
		tables := sim.Run(bound, in)
		computes := func(want []uint64) bool {
			for v := uint32(1); v <= bound.MaxVar(); v++ {
				if slices.Equal(tables.Node(v), want) || slices.Equal(tables.Lit(aig.MkLit(v, true)), want) {
					return true
				}
			}
			return false
		}
		type spec struct {
			g   *aig.AIG
			lit aig.Lit
		}
		lf := res.LockingFunction
		specs := []spec{{c, c.Output(res.Report.ProtectedOutput)}, {lf, lf.Output(0)}}
		for v := uint32(1); v <= c.MaxVar(); v++ {
			specs = append(specs, spec{c, aig.MkLit(v, false)})
		}
		cTables, lfTables := sim.Run(c, in), sim.Run(lf, in)
		for _, s := range specs {
			want := cTables.Lit(s.lit)
			if s.g == lf {
				want = lfTables.Lit(s.lit)
			}
			lit, v := cec.FindNode(ctx, bound, s.g, s.lit, cec.DefaultFindOptions())
			exists := computes(want)
			switch {
			case v == cec.Undecided:
				t.Fatalf("seed %d spec %v: undecided", seed, s.lit)
			case (v == cec.Found) != exists:
				t.Fatalf("seed %d spec %v: scan says %v, truth tables say exists=%t", seed, s.lit, v, exists)
			case v == cec.Found && !slices.Equal(tables.Lit(lit), want):
				t.Fatalf("seed %d spec %v: found literal %v computes another function", seed, s.lit, lit)
			case v == cec.Found:
				found++
			default:
				refuted++
			}
		}
	}
	if locks < 2 || found == 0 || refuted == 0 {
		t.Fatalf("weak cross-check: %d locks, %d found, %d refuted", locks, found, refuted)
	}
	t.Logf("%d locks: %d specs found, %d refuted", locks, found, refuted)
}
