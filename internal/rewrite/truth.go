// Package rewrite provides the logic-synthesis transformations ObfusLock
// builds on: k-feasible cut enumeration with truth tables, ISOP-based
// functional rewriting (the DAG-aware rewriting step of the paper),
// depth-minimizing balancing, and key-polarity bubble insertion/hiding.
package rewrite

import "math/bits"

// Truth tables over up to 6 variables are stored in a uint64 with the
// value for minterm m in bit m, replicated to fill all 64 bits so that
// bitwise ops work uniformly regardless of the support size.

// varMasks[i] has 1-bits exactly where variable i is 1.
var varMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// VarTruth returns the truth table of variable i (of up to 6).
func VarTruth(i int) uint64 { return varMasks[i] }

// Cof0 returns the negative cofactor of tt with respect to variable i,
// replicated over both halves.
func Cof0(tt uint64, i int) uint64 {
	lo := tt &^ varMasks[i]
	return lo | lo<<(1<<uint(i))
}

// Cof1 returns the positive cofactor of tt with respect to variable i.
func Cof1(tt uint64, i int) uint64 {
	hi := tt & varMasks[i]
	return hi | hi>>(1<<uint(i))
}

// Depends reports whether tt depends on variable i.
func Depends(tt uint64, i int) bool { return Cof0(tt, i) != Cof1(tt, i) }

// Ones counts minterms of tt over nvars variables.
func Ones(tt uint64, nvars int) int {
	width := 1 << uint(nvars)
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<uint(width) - 1
	}
	return bits.OnesCount64(tt & mask)
}

// Cube is a product term: a conjunction of positive literals (Pos bit set)
// and negative literals (Neg bit set) over cut-local variables.
type Cube struct {
	Pos, Neg uint32
}

// Truth returns the truth table of the cube.
func (c Cube) Truth() uint64 {
	tt := ^uint64(0)
	for i := 0; i < 6; i++ {
		if c.Pos>>uint(i)&1 == 1 {
			tt &= varMasks[i]
		}
		if c.Neg>>uint(i)&1 == 1 {
			tt &= ^varMasks[i]
		}
	}
	return tt
}

// NumLits returns the number of literals in the cube.
func (c Cube) NumLits() int {
	return bits.OnesCount32(c.Pos) + bits.OnesCount32(c.Neg)
}

// Isop appends to cover an irredundant sum-of-products for any function f
// with L <= f <= U (Minato-Morreale) and returns the extended cover and
// f's truth table. Pass L = U = tt for an exact cover. nvars bounds the
// variables considered (<= 6).
func Isop(cover []Cube, l, u uint64, nvars int) ([]Cube, uint64) {
	if l == 0 {
		return cover, 0
	}
	if u == ^uint64(0) {
		return append(cover, Cube{}), ^uint64(0)
	}
	// Find the top variable on which either bound depends.
	v := -1
	for i := nvars - 1; i >= 0; i-- {
		if Depends(l, i) || Depends(u, i) {
			v = i
			break
		}
	}
	if v < 0 {
		// l is a constant: it must be 1 (l != 0 over the full domain).
		return append(cover, Cube{}), ^uint64(0)
	}
	l0, l1 := Cof0(l, v), Cof1(l, v)
	u0, u1 := Cof0(u, v), Cof1(u, v)

	// The sub-covers only mention variables below v, so v's literal can
	// be set on each one's cubes after it is appended.
	start := len(cover)
	cover, f0 := Isop(cover, l0&^u1, u0, v)
	mid := len(cover)
	cover, f1 := Isop(cover, l1&^u0, u1, v)
	for i := start; i < mid; i++ {
		cover[i].Neg |= 1 << uint(v)
	}
	for i := mid; i < len(cover); i++ {
		cover[i].Pos |= 1 << uint(v)
	}
	lnew := (l0 &^ f0) | (l1 &^ f1)
	cover, fs := Isop(cover, lnew, u0&u1, v)
	f := (f0 &^ varMasks[v]) | (f1 & varMasks[v]) | fs
	return cover, f
}

// CoverCost estimates the AIG node cost of a cover: AND nodes inside cubes
// plus OR nodes joining them.
func CoverCost(cover []Cube) int {
	cost := 0
	for _, c := range cover {
		if n := c.NumLits(); n > 1 {
			cost += n - 1
		}
	}
	if len(cover) > 1 {
		cost += len(cover) - 1
	}
	return cost
}
