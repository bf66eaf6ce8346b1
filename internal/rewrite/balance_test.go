package rewrite

import (
	"math/rand"
	"testing"

	"obfuslock/internal/aig"
)

func TestBalanceReducesDepth(t *testing.T) {
	// Left-deep AND chain over 16 inputs: depth 15 -> ~4 after balancing.
	g := aig.New()
	in := g.AddInputs(16)
	acc := in[0]
	for _, l := range in[1:] {
		acc = g.And(acc, l)
	}
	g.AddOutput(acc, "f")
	b := Balance(g)
	mustEquivalent(t, g, b, "balance chain")
	if b.Depth() > 5 {
		t.Fatalf("balanced depth = %d, want <= 5", b.Depth())
	}
}

func TestBalanceXorChain(t *testing.T) {
	g := aig.New()
	in := g.AddInputs(12)
	acc := in[0]
	for _, l := range in[1:] {
		acc = g.Xor(acc, l.Not())
	}
	g.AddOutput(acc, "f")
	b := Balance(g)
	mustEquivalent(t, g, b, "balance xor chain")
	if b.Depth() > 5 {
		t.Fatalf("balanced xor depth = %d", b.Depth())
	}
}

func TestBalanceRandomEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 6, 60)
		b := Balance(g)
		mustEquivalent(t, g, b, "balance random")
		if b.Depth() > g.Depth() {
			t.Fatalf("balance increased depth: %d -> %d", g.Depth(), b.Depth())
		}
	}
}
