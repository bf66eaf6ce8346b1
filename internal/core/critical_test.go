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
	"obfuslock/internal/obs"
	"obfuslock/internal/sim"
)

// A protected output whose root also drives a second primary output keeps
// F in every netlist the blend can produce: the lock exhausts its attempts
// and must report the surviving critical node, not a clean lock. Its scans
// after the first re-find F through the witnesses of earlier scans, so the
// trace has fewer cec.find_node spans than lock.cec spans. A sub-circuit
// lock of the same netlist must report the scan of what it ships, not of
// its extracted sub-netlist.
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
	col := obs.NewCollector()
	opt.Trace = obs.New(col)
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
	spans := map[string]int{}
	for _, sd := range col.Spans() {
		spans[sd.Name]++
	}
	if spans["cec.find_node"] >= spans["lock.cec"] {
		t.Fatalf("%d cec.find_node spans for %d lock.cec spans: no verdict came from a witness",
			spans["cec.find_node"], spans["lock.cec"])
	}

	opt.Trace = nil
	opt.SubCircuit = true
	opt.TargetSkewBits = 6
	res, err = Lock(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CriticalNode != CriticalSurvives {
		t.Fatalf("sub-circuit: critical=%q, want %q", res.Report.CriticalNode, CriticalSurvives)
	}
	if err := res.Locked.Verify(c); err != nil {
		t.Fatalf("sub-circuit: %v", err)
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
// wrong-key-bound netlist computes the spec in either phase. Each spec is
// decided a second time through its witnesses, and a second lock of the
// same circuit, at another seed, is scanned with the first lock's
// witnesses as the spec. The scan must never be undecided at these sizes.
func TestCriticalScanMatchesTruthTables(t *testing.T) {
	ctx := context.Background()
	locks, found, refuted, byWitness, witnessSpec := 0, 0, 0, 0, 0
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
		opt.Seed = seed + 1000
		res2, err := Lock(ctx, c, opt)
		if err != nil {
			t.Logf("seed %d: %v", opt.Seed, err)
			continue
		}
		locks++
		in := sim.ExhaustiveInputs(n)
		// computes reports whether some node of bound computes want.
		computes := func(bound *aig.AIG, want []uint64) bool {
			tables := sim.Run(bound, in)
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
		bound, bound2 := res.Locked.WrongKeyBound(), res2.Locked.WrongKeyBound()
		for _, s := range specs {
			want := cTables.Lit(s.lit)
			if s.g == lf {
				want = lfTables.Lit(s.lit)
			}
			exists := computes(bound, want)
			ws := newWitnesses(s.g, s.lit)
			v, _ := criticalVerdict(ctx, res.Locked, ws, nil)
			last := (*ws)[len(*ws)-1]
			switch {
			case v == cec.Undecided:
				t.Fatalf("seed %d spec %v: undecided", seed, s.lit)
			case (v == cec.Found) != exists:
				t.Fatalf("seed %d spec %v: scan says %v, truth tables say exists=%t", seed, s.lit, v, exists)
			case v == cec.Found && !slices.Equal(sim.Run(last, in).Lit(last.Output(0)), want):
				t.Fatalf("seed %d spec %v: the witness computes another function", seed, s.lit)
			case v == cec.Found:
				found++
			default:
				refuted++
			}
			// Same lock: a found spec's witness lands on the node it was
			// cut from.
			v, w := criticalVerdict(ctx, res.Locked, ws, nil)
			if (v == cec.Found) != exists || w != exists {
				t.Fatalf("seed %d spec %v: re-decided %v (witness %t), truth tables say exists=%t", seed, s.lit, v, w, exists)
			}
			if w {
				byWitness++
			}
			// Second lock: the first lock's latest witness stands in for
			// the spec.
			ws2 := slices.Clone(*ws)
			if len(ws2) > 1 {
				witnessSpec++
			}
			exists2 := computes(bound2, want)
			if v, _ := criticalVerdict(ctx, res2.Locked, &ws2, nil); v == cec.Undecided || (v == cec.Found) != exists2 {
				t.Fatalf("seed %d spec %v: second lock says %v, truth tables say exists=%t", seed, s.lit, v, exists2)
			}
		}
	}
	if locks < 2 || found == 0 || refuted == 0 || byWitness != found || witnessSpec == 0 {
		t.Fatalf("weak cross-check: %d locks, %d found, %d refuted, %d re-found by witness, %d witness specs",
			locks, found, refuted, byWitness, witnessSpec)
	}
	t.Logf("%d locks: %d specs found, %d refuted, %d re-decided on a second lock with a proven witness",
		locks, found, refuted, witnessSpec)
}
