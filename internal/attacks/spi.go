package attacks

import (
	"time"

	"obfuslock/internal/aig"
	"obfuslock/internal/locking"
)

// SPIResult reports the synthesis/prime-implicant attack.
type SPIResult struct {
	// Key is the inferred key (always KeyBits long; bits default false).
	Key []bool
	// Confident marks bits the rules actually fired on.
	Confident []bool
	// XORRuleHits / PointRuleHits count rule applications.
	XORRuleHits   int
	PointRuleHits int
	Runtime       time.Duration
}

// SPI runs an SPI-style structural synthesis attack (after Han et al.,
// "Does logic locking work with EDA tools?"). Two inference rules cover
// the classic schemes:
//
//  1. XOR-transparency: a key bit feeding a key-XOR gate is inferred as the
//     value that turns the gate into a buffer of its functional fanin —
//     this recovers RLL/EPIC keys from an unsynthesized or lightly
//     synthesized netlist.
//  2. Point-function polarity: a wide AND tree over primary-input literals
//     (no key dependence) is the hard-coded comparator of a stripped point
//     function (TTLock-style); its literal polarities spell the protected
//     pattern, which equals the key.
//
// ObfusLock defeats both: its key XORs are composed behind randomized
// bubbles (transparency infers the wrong polarity) and its locking circuit
// is built from pre-existing circuit nodes rather than a fresh comparator.
func SPI(l *locking.Locked, minPointWidth int) SPIResult {
	start := time.Now()
	g := l.Enc
	res := SPIResult{
		Key:       make([]bool, l.KeyBits),
		Confident: make([]bool, l.KeyBits),
	}
	keyIndex := make(map[uint32]int, l.KeyBits)
	for i := 0; i < l.KeyBits; i++ {
		keyIndex[g.InputVar(l.NumInputs+i)] = i
	}

	// Rule 2 runs first: point-function polarity is direct evidence of the
	// hard-coded comparator pattern, which for TTLock-style schemes equals
	// the key. Find wide AND trees whose leaves are primary-input literals
	// only; the polarity vector maps onto key bits by input position.
	for v := uint32(1); v <= g.MaxVar(); v++ {
		if g.Op(v) != aig.OpAnd {
			continue
		}
		leaves := flattenAnd(g, aig.MkLit(v, false), 2*l.KeyBits+4)
		if len(leaves) < minPointWidth {
			continue
		}
		polarity := make(map[int]bool) // original-input position -> bit
		pure := true
		for _, lf := range leaves {
			if g.Op(lf.Var()) != aig.OpInput {
				pure = false
				break
			}
			if _, isKey := keyIndex[lf.Var()]; isKey {
				pure = false // key-dependent: restore unit, not the strip
				break
			}
			pos, ok := g.InputIndex(lf.Var())
			if !ok || pos >= l.KeyBits {
				// Outside the protected prefix convention.
				pure = false
				break
			}
			polarity[pos] = !lf.IsCompl()
		}
		if !pure || len(polarity) < minPointWidth {
			continue
		}
		for pos, bit := range polarity {
			if !res.Confident[pos] {
				res.Confident[pos] = true
				res.Key[pos] = bit
			}
		}
		res.PointRuleHits++
	}

	// Rule 1: XOR transparency. A key-XOR inserted by RLL/EPIC pairs the
	// key with an internal functional signal; the transparent key value is
	// the consistent fanout complement parity. XORs pairing a key with a
	// primary input are comparator/permutation inputs, where transparency
	// reasoning is unsound, so they are skipped.
	fanoutPhase := xorFanoutPhases(g)
	for v := uint32(1); v <= g.MaxVar(); v++ {
		if g.Op(v) != aig.OpXor {
			continue
		}
		fan := g.Fanins(v)
		ki := -1
		internalOther := false
		for fi, f := range fan[:2] {
			if idx, ok := keyIndex[f.Var()]; ok {
				if ki >= 0 {
					ki = -2 // two key fanins: not a simple locking gate
					break
				}
				ki = idx
				other := fan[1-fi]
				internalOther = g.Op(other.Var()) != aig.OpInput
			}
		}
		if ki < 0 || !internalOther {
			continue
		}
		phase, ok := fanoutPhase[v]
		if !ok {
			continue // mixed-phase usage: no confident inference
		}
		if !res.Confident[ki] {
			res.Confident[ki] = true
			res.Key[ki] = phase
			res.XORRuleHits++
		}
	}
	res.Runtime = time.Since(start)
	return res
}

// xorFanoutPhases returns, for each XOR variable used with a consistent
// phase by all fanouts (including outputs), that phase (true = always used
// complemented).
func xorFanoutPhases(g *aig.AIG) map[uint32]bool {
	phase := make(map[uint32]int8) // 0 unseen, 1 pos, 2 neg, 3 mixed
	note := func(f aig.Lit) {
		if g.Op(f.Var()) != aig.OpXor {
			return
		}
		bit := int8(1)
		if f.IsCompl() {
			bit = 2
		}
		phase[f.Var()] |= bit
	}
	for v := uint32(1); v <= g.MaxVar(); v++ {
		for _, f := range g.Fanins(v) {
			note(f)
		}
	}
	for _, po := range g.Outputs() {
		note(po)
	}
	out := make(map[uint32]bool)
	for v, p := range phase {
		switch p {
		case 1:
			out[v] = false
		case 2:
			out[v] = true
		}
	}
	return out
}

// flattenAnd expands an AND tree through non-complemented edges.
func flattenAnd(g *aig.AIG, root aig.Lit, limit int) []aig.Lit {
	var out []aig.Lit
	var walk func(l aig.Lit)
	walk = func(l aig.Lit) {
		if len(out) > limit {
			return
		}
		if !l.IsCompl() && g.Op(l.Var()) == aig.OpAnd {
			fan := g.Fanins(l.Var())
			walk(fan[0])
			walk(fan[1])
			return
		}
		out = append(out, l)
	}
	walk(root)
	return out
}
