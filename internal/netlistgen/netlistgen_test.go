package netlistgen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"obfuslock/internal/aig"
)

func evalWord(g *aig.AIG, pattern []bool, lo, n int) uint64 {
	out := g.Eval(pattern)
	var w uint64
	for i := 0; i < n; i++ {
		if out[lo+i] {
			w |= 1 << uint(i)
		}
	}
	return w
}

func setWord(pattern []bool, lo, n int, v uint64) {
	for i := 0; i < n; i++ {
		pattern[lo+i] = v>>uint(i)&1 == 1
	}
}

func TestMultiplierCorrect(t *testing.T) {
	n := 6
	g := Multiplier(n)
	if g.NumInputs() != 2*n || g.NumOutputs() != 2*n {
		t.Fatalf("interface: %v", g.Stats())
	}
	f := func(a, b uint16) bool {
		av := uint64(a) & (1<<uint(n) - 1)
		bv := uint64(b) & (1<<uint(n) - 1)
		pat := make([]bool, 2*n)
		setWord(pat, 0, n, av)
		setWord(pat, n, n, bv)
		return evalWord(g, pat, 0, 2*n) == av*bv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Corner cases.
	for _, c := range [][2]uint64{{0, 0}, {63, 63}, {1, 63}, {32, 2}} {
		pat := make([]bool, 2*n)
		setWord(pat, 0, n, c[0])
		setWord(pat, n, n, c[1])
		if got := evalWord(g, pat, 0, 2*n); got != c[0]*c[1] {
			t.Fatalf("%d*%d = %d, got %d", c[0], c[1], c[0]*c[1], got)
		}
	}
}

func TestSquarerCorrect(t *testing.T) {
	n := 7
	g := Squarer(n)
	f := func(a uint16) bool {
		av := uint64(a) & (1<<uint(n) - 1)
		pat := make([]bool, n)
		setWord(pat, 0, n, av)
		return evalWord(g, pat, 0, 2*n) == av*av
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 128}); err != nil {
		t.Error(err)
	}
}

func TestMaxCorrect(t *testing.T) {
	k, w := 4, 8
	g := Max(k, w)
	f := func(x0, x1, x2, x3 uint8) bool {
		vals := []uint64{uint64(x0), uint64(x1), uint64(x2), uint64(x3)}
		pat := make([]bool, k*w)
		for i, v := range vals {
			setWord(pat, i*w, w, v)
		}
		want := vals[0]
		for _, v := range vals[1:] {
			if v > want {
				want = v
			}
		}
		return evalWord(g, pat, 0, w) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAdderCmpCorrect(t *testing.T) {
	n := 8
	g := AdderCmp(n)
	f := func(a, b uint8, cin bool) bool {
		pat := make([]bool, 2*n+1)
		setWord(pat, 0, n, uint64(a))
		setWord(pat, n, n, uint64(b))
		pat[2*n] = cin
		out := g.Eval(pat)
		var sum uint64
		for i := 0; i < n; i++ {
			if out[i] {
				sum |= 1 << uint(i)
			}
		}
		c := uint64(0)
		if cin {
			c = 1
		}
		wantSum := uint64(a) + uint64(b) + c
		if sum != wantSum&(1<<uint(n)-1) {
			return false
		}
		if out[n] != (wantSum>>uint(n)&1 == 1) {
			return false
		}
		// Difference bits follow cout.
		var diff uint64
		for i := 0; i < n; i++ {
			if out[n+1+i] {
				diff |= 1 << uint(i)
			}
		}
		if diff != (uint64(a)-uint64(b))&(1<<uint(n)-1) {
			return false
		}
		if out[2*n+1] != (a < b) {
			return false
		}
		if out[2*n+2] != (a == b) {
			return false
		}
		par := false
		for i := 0; i < n; i++ {
			if (uint64(a)>>uint(i)&1 == 1) != (uint64(b)>>uint(i)&1 == 1) {
				par = !par
			}
		}
		return out[2*n+3] == par
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestControlDeterministicAndSized(t *testing.T) {
	spec := ControlSpec{Name: "t", Inputs: 40, Outputs: 16, TargetNodes: 500, Seed: 99}
	g1 := Control(spec)
	g2 := Control(spec)
	if g1.NumNodes() != g2.NumNodes() || g1.MaxVar() != g2.MaxVar() {
		t.Fatal("Control is not deterministic for a fixed seed")
	}
	if g1.NumInputs() != 40 || g1.NumOutputs() != 16 {
		t.Fatalf("interface: %v", g1.Stats())
	}
	if g1.NumNodes() < 500 || g1.NumNodes() > 600 {
		t.Fatalf("node count %d not near target 500", g1.NumNodes())
	}
	// Same functional output for equal seeds.
	rng := rand.New(rand.NewSource(1))
	pat := make([]bool, 40)
	for i := range pat {
		pat[i] = rng.Intn(2) == 1
	}
	o1, o2 := g1.Eval(pat), g2.Eval(pat)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("same-seed circuits differ functionally")
		}
	}
	// Different seed must give a different circuit (overwhelmingly likely).
	spec.Seed = 100
	g3 := Control(spec)
	diff := g3.NumNodes() != g1.NumNodes()
	if !diff {
		o3 := g3.Eval(pat)
		for i := range o1 {
			if o1[i] != o3[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical circuits")
	}
}

func TestCatalogShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog is large")
	}
	for _, b := range Catalog() {
		g := b.Build()
		n := g.NumNodes()
		if n < b.PaperNodes/4 || n > b.PaperNodes*4 {
			t.Errorf("%s: %d nodes, paper %d — out of range", b.Name, n, b.PaperNodes)
		}
		if g.NumInputs() == 0 || g.NumOutputs() == 0 {
			t.Errorf("%s: empty interface", b.Name)
		}
	}
}

func TestSmallSuiteBuilds(t *testing.T) {
	for _, b := range SmallSuite() {
		g := b.Build()
		if g.NumNodes() == 0 {
			t.Errorf("%s: empty circuit", b.Name)
		}
	}
}
