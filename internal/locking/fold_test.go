package locking_test

import (
	"math/rand"
	"slices"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/lockbase"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
)

// Folding a round of patterns into one strashed key-space graph must keep
// every pattern's constraint exact — output block j is enc(x_j, key) for
// every key — while sharing structure across the patterns, and the
// bit-parallel KeyCone fold must build the same graph as the direct one.
func TestFoldRoundIntoOneGraph(t *testing.T) {
	l, err := lockbase.RLL(netlistgen.Multiplier(4), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	xs := make([][]bool, 12)
	for j := range xs {
		xs[j] = make([]bool, l.NumInputs)
		for i := range xs[j] {
			xs[j][i] = rng.Intn(2) == 1
		}
	}
	newRound := func() (*aig.AIG, []aig.Lit) {
		g := aig.New()
		keys := make([]aig.Lit, l.KeyBits)
		for i := range keys {
			keys[i] = g.AddInput(locking.KeyName(i))
		}
		return g, keys
	}
	g, keys := newRound()
	cg, ckeys := newRound()
	kc := locking.NewKeyCone(l.Enc, l.NumInputs)
	kc.Simulate(xs)
	blocks := make([][]aig.Lit, len(xs))
	summed := 0
	for j, x := range xs {
		blocks[j] = locking.FoldInputs(g, l.Enc, l.NumInputs, x, keys)
		if got := kc.Fold(cg, ckeys, j); !slices.Equal(got, blocks[j]) {
			t.Fatalf("pattern %d: KeyCone.Fold outputs %v, FoldInputs %v", j, got, blocks[j])
		}
		summed += locking.BindInputs(l.Enc, l.NumInputs, x).NumNodes()
	}
	if g.NumNodes() != cg.NumNodes() {
		t.Fatalf("KeyCone.Fold built %d nodes, FoldInputs %d", cg.NumNodes(), g.NumNodes())
	}
	if g.NumNodes() >= summed {
		t.Fatalf("round graph has %d nodes, per-pattern cones sum to %d: nothing shared", g.NumNodes(), summed)
	}
	for trial := 0; trial < 32; trial++ {
		key := make([]bool, l.KeyBits)
		for i := range key {
			key[i] = rng.Intn(2) == 1
		}
		for j, x := range xs {
			got := g.EvalLits(key, blocks[j]...)
			if want := locking.BindInputs(l.Enc, l.NumInputs, x).Eval(key); !slices.Equal(got, want) {
				t.Fatalf("key %v pattern %d: round graph %v, BindInputs %v", key, j, got, want)
			}
			if want := l.Enc.Eval(append(slices.Clone(x), key...)); !slices.Equal(got, want) {
				t.Fatalf("key %v pattern %d: round graph %v, enc %v", key, j, got, want)
			}
		}
	}
}

// A batched oracle query answers every pattern as a single query does,
// across batches of different widths that reuse one simulation buffer.
func TestQueryBatchMatchesQuery(t *testing.T) {
	c := netlistgen.Multiplier(4)
	o := locking.NewOracle(c)
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{70, 3, 64, 2} {
		xs := make([][]bool, n)
		for j := range xs {
			xs[j] = make([]bool, c.NumInputs())
			for i := range xs[j] {
				xs[j][i] = rng.Intn(2) == 1
			}
		}
		for j, y := range o.QueryBatch(xs) {
			if want := c.Eval(xs[j]); !slices.Equal(y, want) {
				t.Fatalf("batch of %d, pattern %d: %v, want %v", n, j, y, want)
			}
		}
	}
}
