package cec

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/sim"
)

func randSimpCircuit(rng *rand.Rand, nin, nops, nout int) *aig.AIG {
	g := aig.New()
	lits := g.AddInputs(nin)
	for i := 0; i < nops; i++ {
		pick := func() aig.Lit {
			l := lits[rng.Intn(len(lits))]
			if rng.Intn(2) == 0 {
				l = l.Not()
			}
			return l
		}
		var nl aig.Lit
		switch rng.Intn(3) {
		case 0:
			nl = g.And(pick(), pick())
		case 1:
			nl = g.Xor(pick(), pick())
		default:
			nl = g.Maj(pick(), pick(), pick())
		}
		lits = append(lits, nl)
	}
	for o := 0; o < nout; o++ {
		g.AddOutput(lits[len(lits)-1-o], "o")
	}
	return g
}

// Equivalence verdicts of the preprocessed miter must match exhaustive
// simulation over the circuits' 5-8 inputs, in both the monolithic and
// the swept mode, and a counterexample found on a solver whose internal
// variables were eliminated must still distinguish the two circuits.
// The simulation pre-filter is off, so every verdict is the solver's.
func TestCheckSimpOnOffAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		a := randSimpCircuit(rng, 5+rng.Intn(4), 15+rng.Intn(30), 2)
		var b *aig.AIG
		if rng.Intn(2) == 0 {
			b = a.Copy() // equivalent
		} else {
			b = randSimpCircuit(rng, a.NumInputs(), 15+rng.Intn(30), 2) // almost surely different
		}
		in := sim.ExhaustiveInputs(a.NumInputs())
		va, vb := sim.Run(a, in), sim.Run(b, in)
		want := true
		for o := 0; o < a.NumOutputs(); o++ {
			if !slices.Equal(va.Output(o), vb.Output(o)) {
				want = false
			}
		}
		for _, sweep := range []bool{false, true} {
			opt := DefaultOptions()
			if sweep {
				opt = SweepOptions()
			}
			opt.SimWords = 0
			opt.Seed = int64(trial)
			r, err := Check(context.Background(), a, b, opt)
			if err != nil {
				t.Fatalf("trial %d err: %v", trial, err)
			}
			if !r.Decided || r.Equivalent != want {
				t.Fatalf("trial %d sweep=%v: decided=%v equivalent=%v, exhaustive simulation says %v",
					trial, sweep, r.Decided, r.Equivalent, want)
			}
			if !r.Equivalent && slices.Equal(a.Eval(r.Counterexample), b.Eval(r.Counterexample)) {
				t.Fatalf("trial %d sweep=%v: counterexample does not distinguish", trial, sweep)
			}
		}
	}
}
