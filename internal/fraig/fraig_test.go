package fraig_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/bench"
	"obfuslock/internal/exec"
	"obfuslock/internal/fraig"
	"obfuslock/internal/obs"
)

// sweepOpt is the sweep configuration of the tests: a 10k-conflict cap
// per query.
var sweepOpt = fraig.Options{Seed: 1, Budget: exec.WithConflicts(10000)}

// randAIG builds a seeded random graph. Roughly a third of the nodes are
// deliberate functional duplicates built from a different structure
// (XOR as an OpXor node and as its AND decomposition), so a sweep always
// has real merging work.
func randAIG(seed int64, nin, nnodes int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New()
	var lits []aig.Lit
	for i := 0; i < nin; i++ {
		lits = append(lits, g.AddInput(fmt.Sprintf("x%d", i)))
	}
	pick := func() aig.Lit {
		return lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
	}
	for i := 0; i < nnodes; i++ {
		a, b := pick(), pick()
		var l aig.Lit
		switch rng.Intn(4) {
		case 0:
			l = g.And(a, b)
		case 1:
			l = g.Xor(a, b)
		case 2:
			l = g.Maj(a, b, pick())
		case 3:
			// Structural duplicate of an XOR: same function, AND form.
			l = g.XorAnd(a, b)
			lits = append(lits, g.Xor(a, b))
		}
		lits = append(lits, l)
	}
	for i := 0; i < 3; i++ {
		g.AddOutput(pick(), fmt.Sprintf("y%d", i))
	}
	return g
}

// sameFunction exhaustively compares two graphs with identical interfaces.
func sameFunction(t *testing.T, a, b *aig.AIG) {
	t.Helper()
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		t.Fatalf("interface mismatch: %d/%d in, %d/%d out",
			a.NumInputs(), b.NumInputs(), a.NumOutputs(), b.NumOutputs())
	}
	n := a.NumInputs()
	if n > 12 {
		t.Fatalf("sameFunction is exhaustive; %d inputs is too many", n)
	}
	pat := make([]bool, n)
	for m := 0; m < 1<<uint(n); m++ {
		for i := range pat {
			pat[i] = m>>uint(i)&1 == 1
		}
		va, vb := a.Eval(pat), b.Eval(pat)
		for o := range va {
			if va[o] != vb[o] {
				t.Fatalf("output %d differs on %v", o, pat)
			}
		}
	}
}

func TestSweepPreservesFunction(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randAIG(seed, 6, 40)
		res := fraig.Sweep(context.Background(), g, sweepOpt)
		if !res.Decided {
			t.Fatalf("seed %d: unlimited-enough budget left the sweep undecided", seed)
		}
		sameFunction(t, g, res.Reduced)
		if res.Reduced.NumNodes() > g.NumNodes() {
			t.Fatalf("seed %d: sweep grew the graph: %d -> %d",
				seed, g.NumNodes(), res.Reduced.NumNodes())
		}
	}
}

func TestSweepMergesDuplicates(t *testing.T) {
	// Two structurally different XOR forms of the same inputs must merge.
	g := aig.New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	g.AddOutput(g.Xor(a, b), "x")
	g.AddOutput(g.XorAnd(a, b), "y")
	res := fraig.Sweep(context.Background(), g, sweepOpt)
	if res.Stats.Merges == 0 {
		t.Fatal("no merges on a graph with a known duplicate")
	}
	if res.Reduced.Output(0) != res.Reduced.Output(1) {
		t.Fatalf("equivalent outputs did not merge: %v vs %v",
			res.Reduced.Output(0), res.Reduced.Output(1))
	}
	sameFunction(t, g, res.Reduced)
}

// TestSweepDeterministic pins byte-identical results across repeated runs
// and across worker counts: sweeps dispatched through exec.Collect with
// seeds from exec.DeriveSeed must not depend on the pool size.
func TestSweepDeterministic(t *testing.T) {
	const n = 8
	run := func(workers int) []string {
		outs := make([]string, n)
		exec.Collect(context.Background(), workers, n,
			func(ctx context.Context, i int) string {
				g := randAIG(exec.DeriveSeed(7, i), 6, 50)
				opt := sweepOpt
				opt.Seed = exec.DeriveSeed(7, i)
				res := fraig.Sweep(ctx, g, opt)
				var buf bytes.Buffer
				if err := bench.Write(&buf, res.Reduced); err != nil {
					t.Error(err)
				}
				return buf.String()
			},
			func(i int, s string) { outs[i] = s })
		return outs
	}
	w1 := run(1)
	w4 := run(4)
	w1b := run(1)
	for i := 0; i < n; i++ {
		if w1[i] != w4[i] {
			t.Fatalf("sweep %d differs between workers=1 and workers=4", i)
		}
		if w1[i] != w1b[i] {
			t.Fatalf("sweep %d differs between repeated runs", i)
		}
	}
}

func TestSweepBudgetExhaustedIsUndecided(t *testing.T) {
	g := randAIG(3, 6, 60)
	opt := sweepOpt
	opt.Budget = exec.WithConflicts(-1) // exhaust immediately: every query Unknown
	res := fraig.Sweep(context.Background(), g, opt)
	if res.Stats.Candidates > 0 && res.Decided {
		t.Fatal("zero-budget sweep reported decided")
	}
	if res.Stats.SatProved != 0 {
		t.Fatal("zero-budget sweep proved something")
	}
	sameFunction(t, g, res.Reduced) // still sound
}

func TestSweepCancelledStaysSound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := randAIG(4, 6, 60)
	res := fraig.Sweep(ctx, g, sweepOpt)
	if res.Decided && res.Stats.Candidates > 0 {
		t.Fatal("cancelled sweep reported decided")
	}
	sameFunction(t, g, res.Reduced)
}

func TestSweepInstrumentation(t *testing.T) {
	col := obs.NewCollector()
	roll := obs.NewRollup()
	opt := sweepOpt
	opt.Trace = obs.New(obs.Multi(col, roll))
	g := randAIG(5, 6, 50)
	res := fraig.Sweep(context.Background(), g, opt)
	if res.Stats.Merges == 0 {
		t.Fatal("expected merges on the duplicate-rich random graph")
	}
	sd, ok := col.SpanNamed("fraig.sweep")
	if !ok {
		t.Fatal("no fraig.sweep span recorded")
	}
	want := map[string]int64{
		"classes":     int64(res.Stats.Classes),
		"merges":      int64(res.Stats.Merges),
		"sim_refuted": int64(res.Stats.SimRefuted),
		"sat_proved":  int64(res.Stats.SatProved),
		"undecided":   int64(res.Stats.Undecided),
	}
	got := map[string]int64{}
	for _, f := range sd.Fields {
		if v, ok := f.Value().(int64); ok {
			got[f.Key] = v
		}
	}
	var rolled map[string]int64
	for _, st := range roll.Spans() {
		if st.Name == "fraig.sweep" {
			rolled = st.Fields
		}
	}
	for k, v := range want {
		if got[k] != v || rolled[k] != v {
			t.Errorf("fraig.sweep %s: span %d, rollup %d, want %d", k, got[k], rolled[k], v)
		}
	}
}
