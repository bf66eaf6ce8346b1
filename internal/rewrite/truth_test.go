package rewrite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// truthOf evaluates a truth table at a minterm.
func truthAt(tt uint64, m int) bool { return tt>>uint(m)&1 == 1 }

// replicate builds the 64-bit replicated table from the low 2^nvars bits.
func replicate(tt uint64, nvars int) uint64 {
	width := 1 << uint(nvars)
	if width >= 64 {
		return tt
	}
	tt &= 1<<uint(width) - 1
	for width < 64 {
		tt |= tt << uint(width)
		width *= 2
	}
	return tt
}

func TestVarTruth(t *testing.T) {
	for i := 0; i < 6; i++ {
		for m := 0; m < 64; m++ {
			want := m>>uint(i)&1 == 1
			if truthAt(VarTruth(i), m) != want {
				t.Fatalf("VarTruth(%d) wrong at minterm %d", i, m)
			}
		}
	}
}

func TestCofactorsAndDepends(t *testing.T) {
	// f = x0 & x1 over 2 vars, replicated.
	f := VarTruth(0) & VarTruth(1)
	if Cof1(f, 0) != VarTruth(1) {
		t.Fatal("Cof1 wrong")
	}
	if Cof0(f, 0) != 0 {
		t.Fatal("Cof0 wrong")
	}
	if !Depends(f, 0) || !Depends(f, 1) || Depends(f, 2) {
		t.Fatal("Depends wrong")
	}
}

func TestOnes(t *testing.T) {
	f := VarTruth(0) & VarTruth(1)
	if Ones(f, 2) != 1 {
		t.Fatalf("Ones = %d, want 1", Ones(f, 2))
	}
	if Ones(f, 3) != 2 {
		t.Fatalf("Ones over 3 vars = %d, want 2", Ones(f, 3))
	}
}

func TestCubeTruth(t *testing.T) {
	c := Cube{Pos: 0b001, Neg: 0b010} // x0 & !x1
	want := VarTruth(0) &^ VarTruth(1)
	if c.Truth() != want {
		t.Fatal("cube truth wrong")
	}
	if c.NumLits() != 2 {
		t.Fatal("NumLits wrong")
	}
	if (Cube{}).Truth() != ^uint64(0) {
		t.Fatal("empty cube must be tautology")
	}
}

// coverTruth ORs the cube truths.
func coverTruth(cover []Cube) uint64 {
	var tt uint64
	for _, c := range cover {
		tt |= c.Truth()
	}
	return tt
}

// Property: Isop(tt, tt) is an exact, irredundant-by-construction cover.
func TestIsopExactRandom(t *testing.T) {
	f := func(raw uint64, nv uint8) bool {
		nvars := int(nv%5) + 2 // 2..6
		tt := replicate(raw, nvars)
		cover, ftt := Isop(nil, tt, tt, nvars)
		return ftt == tt && coverTruth(cover) == tt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIsopIntervalRandom(t *testing.T) {
	// With L <= U, the cover must satisfy L <= cover <= U.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		nvars := 2 + rng.Intn(5)
		l := replicate(rng.Uint64(), nvars)
		u := l | replicate(rng.Uint64(), nvars)
		cover, ftt := Isop(nil, l, u, nvars)
		ct := coverTruth(cover)
		if ct != ftt {
			t.Fatalf("reported truth differs from cover truth")
		}
		if l&^ct != 0 {
			t.Fatalf("cover misses lower-bound minterms")
		}
		if ct&^u != 0 {
			t.Fatalf("cover exceeds upper bound")
		}
	}
}

func TestIsopEdgeCases(t *testing.T) {
	if cover, _ := Isop(nil, 0, 0, 4); len(cover) != 0 {
		t.Fatal("empty function should have empty cover")
	}
	cover, ftt := Isop(nil, ^uint64(0), ^uint64(0), 4)
	if len(cover) != 1 || cover[0].NumLits() != 0 || ftt != ^uint64(0) {
		t.Fatal("tautology should be a single empty cube")
	}
	// Single minterm of 6 vars: one cube with 6 literals.
	tt := uint64(1) // minterm 0: all vars 0
	cover, _ = Isop(nil, tt, tt, 6)
	if len(cover) != 1 || cover[0].NumLits() != 6 {
		t.Fatalf("single minterm: %+v", cover)
	}
}

func TestCoverCost(t *testing.T) {
	if CoverCost(nil) != 0 {
		t.Fatal("empty cover cost")
	}
	// Two cubes of 2 literals: 2 ANDs... (1 node each) + 1 OR = 3.
	cov := []Cube{{Pos: 0b11}, {Neg: 0b11}}
	if CoverCost(cov) != 3 {
		t.Fatalf("cost = %d, want 3", CoverCost(cov))
	}
}
