package cec_test

import (
	"context"
	"fmt"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/attacks"
	"obfuslock/internal/cec"
	"obfuslock/internal/core"
	"obfuslock/internal/exec"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
)

// replaceNodes rebuilds g with each variable in repl replaced by the given
// constant: the from-scratch variant netlist that a pinned check stands
// in for.
func replaceNodes(g *aig.AIG, repl map[uint32]bool) *aig.AIG {
	ng := aig.New()
	ng.Name = g.Name
	m := make([]aig.Lit, g.MaxVar()+1)
	m[0] = aig.ConstFalse
	constOf := func(val bool) aig.Lit {
		if val {
			return aig.ConstTrue
		}
		return aig.ConstFalse
	}
	for i := 0; i < g.NumInputs(); i++ {
		v := g.InputVar(i)
		m[v] = ng.AddInput(g.InputName(i))
		if val, ok := repl[v]; ok {
			m[v] = constOf(val)
		}
	}
	mapped := func(l aig.Lit) aig.Lit { return m[l.Var()].NotIf(l.IsCompl()) }
	for v := uint32(1); v <= g.MaxVar(); v++ {
		if g.Op(v) == aig.OpInput {
			continue
		}
		fan := g.Fanins(v)
		var nl aig.Lit
		switch g.Op(v) {
		case aig.OpAnd:
			nl = ng.And(mapped(fan[0]), mapped(fan[1]))
		case aig.OpXor:
			nl = ng.Xor(mapped(fan[0]), mapped(fan[1]))
		case aig.OpMaj:
			nl = ng.Maj(mapped(fan[0]), mapped(fan[1]), mapped(fan[2]))
		}
		if val, ok := repl[v]; ok {
			nl = constOf(val)
		}
		m[v] = nl
	}
	for i := 0; i < g.NumOutputs(); i++ {
		ng.AddOutput(mapped(g.Output(i)), g.OutputName(i))
	}
	return ng
}

// structuralLock locks SmallSuite()[i] as the structural sweep of the
// attack CLI does at its default seed.
func structuralLock(t *testing.T, i int, bits float64) (*locking.Locked, *aig.AIG) {
	t.Helper()
	c := netlistgen.SmallSuite()[i].Build()
	opt := core.DefaultOptions()
	opt.TargetSkewBits = bits
	opt.Seed = exec.DeriveSeed(1, i)
	opt.AllowDirect = false
	res, err := core.Lock(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Locked, c
}

// danglingNode returns a copy of l whose netlist carries one extra node
// that drives no output, and that node's variable.
func danglingNode(t *testing.T, l *locking.Locked) (*locking.Locked, uint32) {
	t.Helper()
	enc := l.Enc.Copy()
	n := enc.NumInputs()
	for i := 1; i < n; i++ {
		if lit := enc.And(enc.Input(0), enc.Input(i).Not()); lit.Var() > l.Enc.MaxVar() {
			dl := *l
			dl.Enc = enc
			return &dl, lit.Var()
		}
	}
	t.Fatal("no fresh node")
	return nil, 0
}

// A pinned check gives the decided verdict of cec.Check on the variant
// netlist built from scratch, swept or not: every single pin over the SPS
// top 6, every ordered pair over the top 4, the pair Valkyrie reports, an
// input pin, a key-input pin and a pin whose cone reaches no output.
func TestPinnedMatchesCheck(t *testing.T) {
	cases := []struct {
		bench  int
		bits   float64
		broken bool // Valkyrie finds a pair: equal verdicts are covered
	}{
		{2, 10, true}, // c6288-s
		{3, 10, true}, // max-s
		{1, 8, false}, // c7552-s
	}
	for _, tc := range cases {
		t.Run(netlistgen.SmallSuite()[tc.bench].Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			l, c := structuralLock(t, tc.bench, tc.bits)
			seed := exec.DeriveSeed(1, tc.bench)
			top := attacks.SPS(l, 64, seed, 6).Candidates
			vopt := cec.SweepOptions()
			vopt.Budget = exec.WithConflicts(50000)
			vr := attacks.Valkyrie(ctx, l, c, 6, 64, seed, vopt)
			if vr.FoundPair != tc.broken {
				t.Fatalf("valkyrie found-pair=%t, want %t", vr.FoundPair, tc.broken)
			}
			l, dangling := danglingNode(t, l)
			var variants []map[uint32]bool
			for _, v := range top {
				for _, val := range []bool{false, true} {
					variants = append(variants, map[uint32]bool{v: val})
				}
			}
			for i, p := range top[:4] {
				for j, r := range top[:4] {
					if i != j {
						variants = appendPairs(variants, p, r)
					}
				}
			}
			if vr.FoundPair {
				variants = appendPairs(variants, vr.Perturb, vr.Restore)
			}
			variants = append(variants,
				map[uint32]bool{l.Enc.InputVar(0): true},
				map[uint32]bool{l.Enc.InputVar(l.NumInputs): true},
				map[uint32]bool{dangling: false})
			key := make([]bool, l.KeyBits)
			for _, sweep := range []bool{true, false} {
				opt := cec.DefaultOptions()
				if sweep {
					opt = cec.SweepOptions()
				}
				opt.Seed = seed
				opt.Budget = exec.WithConflicts(50000)
				pc, err := cec.NewPinned(ctx, c, l.Enc, key, opt)
				if err != nil {
					t.Fatal(err)
				}
				equal := 0
				for _, pins := range variants {
					name := fmt.Sprintf("sweep=%t pins=%v", sweep, pins)
					got := pc.Check(ctx, pins)
					ml := *l
					ml.Enc = replaceNodes(l.Enc, pins)
					bound := ml.ApplyKey(key)
					want, err := cec.Check(ctx, c, bound, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Decided || !want.Decided {
						t.Fatalf("%s: undecided (pinned %t, reference %t)", name, got.Decided, want.Decided)
					}
					if got.Equivalent != want.Equivalent {
						t.Fatalf("%s: pinned equivalent=%t, reference %t", name, got.Equivalent, want.Equivalent)
					}
					if !got.Equivalent && !differs(c, bound, got.Counterexample) {
						t.Fatalf("%s: counterexample does not separate the circuits", name)
					}
					if got.Equivalent {
						equal++
					}
				}
				if (equal > 0) != tc.broken {
					t.Fatalf("sweep=%t: %d equivalent variants, want some: %t", sweep, equal, tc.broken)
				}
				d, u := pc.Check(ctx, map[uint32]bool{dangling: true}), pc.Check(ctx, nil)
				if !d.Decided || !u.Decided || d.Equivalent != u.Equivalent {
					t.Fatalf("sweep=%t: pinning a node that drives no output changed the verdict: %+v vs %+v", sweep, d, u)
				}
			}
		})
	}
}

// appendPairs appends the four constant assignments of the pair (p, r).
func appendPairs(variants []map[uint32]bool, p, r uint32) []map[uint32]bool {
	for _, pv := range []bool{false, true} {
		for _, rv := range []bool{false, true} {
			variants = append(variants, map[uint32]bool{p: pv, r: rv})
		}
	}
	return variants
}

// differs reports whether a and b disagree on some output under pattern.
func differs(a, b *aig.AIG, pattern []bool) bool {
	oa, ob := a.Eval(pattern), b.Eval(pattern)
	for i := range oa {
		if oa[i] != ob[i] {
			return true
		}
	}
	return false
}
