package locking

import (
	"context"
	"fmt"
	"slices"

	"obfuslock/internal/aig"
	"obfuslock/internal/cec"
	"obfuslock/internal/sim"
)

// Locked is a key-protected circuit.
type Locked struct {
	// Scheme names the locking method ("obfuslock", "sarlock", ...).
	Scheme string
	// Enc is the encrypted netlist: inputs = original inputs ++ key inputs.
	Enc *aig.AIG
	// NumInputs is the number of original (non-key) inputs m.
	NumInputs int
	// KeyBits is the key length l.
	KeyBits int
	// Key is the correct key k*.
	Key []bool
}

// Validate checks internal consistency.
func (l *Locked) Validate() error {
	if l.Enc.NumInputs() != l.NumInputs+l.KeyBits {
		return fmt.Errorf("locking: enc has %d inputs, want %d original + %d key",
			l.Enc.NumInputs(), l.NumInputs, l.KeyBits)
	}
	if len(l.Key) != l.KeyBits {
		return fmt.Errorf("locking: key length %d != KeyBits %d", len(l.Key), l.KeyBits)
	}
	return nil
}

// ApplyKey binds the key inputs to constants, returning a circuit over the
// original inputs only.
func (l *Locked) ApplyKey(key []bool) *aig.AIG {
	if len(key) != l.KeyBits {
		panic("locking: key length mismatch")
	}
	ng := aig.New()
	ng.Name = l.Enc.Name
	piMap := make([]aig.Lit, l.Enc.NumInputs())
	for i := 0; i < l.NumInputs; i++ {
		piMap[i] = ng.AddInput(l.Enc.InputName(i))
	}
	for i := 0; i < l.KeyBits; i++ {
		if key[i] {
			piMap[l.NumInputs+i] = aig.ConstTrue
		} else {
			piMap[l.NumInputs+i] = aig.ConstFalse
		}
	}
	outs := ng.Import(l.Enc, piMap)
	for i, o := range outs {
		ng.AddOutput(o, l.Enc.OutputName(i))
	}
	return ng
}

// WrongKeyBound binds the key inputs to a fixed wrong key: all zeros, or,
// when all zeros is the correct key, all zeros but the first bit. The
// critical-node scans search this netlist; binding the correct key would
// report the unlocked output itself as a surviving critical node.
func (l *Locked) WrongKeyBound() *aig.AIG {
	wrong := make([]bool, l.KeyBits)
	if l.KeyBits > 0 && slices.Equal(l.Key, wrong) {
		wrong[0] = true
	}
	return l.ApplyKey(wrong)
}

// BindInputs binds the first m primary inputs of enc to the constants x,
// keeping the remaining inputs (the key inputs, by convention) free. The
// result is the key-only cone used when recording I/O constraints in
// oracle-guided attacks.
func BindInputs(enc *aig.AIG, m int, x []bool) *aig.AIG {
	ng := aig.New()
	keys := make([]aig.Lit, enc.NumInputs()-m)
	for i := range keys {
		keys[i] = ng.AddInput(enc.InputName(m + i))
	}
	for i, o := range FoldInputs(ng, enc, m, x, keys) {
		ng.AddOutput(o, enc.OutputName(i))
	}
	return ng
}

// FoldInputs folds the key-only cone of pattern x into dst: the first m
// inputs of enc are bound to the constants x and key input i to keys[i],
// a literal of dst. It returns the cone's output literals in dst. dst is
// strashed, so folding several patterns into one graph shares every
// sub-function of the key they have in common (the attacks fold a whole
// DIP round into one graph).
func FoldInputs(dst, enc *aig.AIG, m int, x []bool, keys []aig.Lit) []aig.Lit {
	if len(x) != m || m+len(keys) != enc.NumInputs() {
		panic("locking: FoldInputs shape mismatch")
	}
	piMap := make([]aig.Lit, enc.NumInputs())
	for i := 0; i < m; i++ {
		if x[i] {
			piMap[i] = aig.ConstTrue
		} else {
			piMap[i] = aig.ConstFalse
		}
	}
	copy(piMap[m:], keys)
	return dst.Import(enc, piMap)
}

// KeyCone is the precomputed key-dependent skeleton of a locked
// circuit, the batched counterpart of FoldInputs. Binding an input
// pattern folds every key-independent node to a constant, which costs a
// full-graph walk per pattern; a KeyCone amortizes that across a DIP
// batch: Simulate evaluates all key-independent nodes for a batch of
// patterns in one bit-parallel pass, and Fold then walks only the
// (usually tiny) key-dependent cone per pattern. Fold makes the same
// strashed calls in the same order as FoldInputs for the same pattern,
// so the folded cone is identical. A KeyCone is not safe for concurrent
// use: it reuses its simulation words and fold scratch across calls.
type KeyCone struct {
	enc  *aig.AIG
	m    int
	vars []uint32    // key-dependent non-input vars in output TFI, topological
	dep  []bool      // per var: depends on at least one key input
	mp   []aig.Lit   // scratch: enc var -> folded lit, rewritten per Fold
	vec  sim.Vectors // the last Simulate batch (key-dependent vars skipped)
	outs []aig.Lit   // Fold's result buffer
}

// NewKeyCone precomputes the key-dependent cone of enc, whose first m
// inputs are original inputs and whose remaining inputs are key inputs.
func NewKeyCone(enc *aig.AIG, m int) *KeyCone {
	dep := make([]bool, enc.MaxVar()+1)
	for i := m; i < enc.NumInputs(); i++ {
		dep[enc.InputVar(i)] = true
	}
	tfi := enc.TFI(enc.Outputs()...)
	var vars []uint32
	for v := uint32(1); v <= enc.MaxVar(); v++ {
		if enc.Op(v) == aig.OpInput {
			continue
		}
		for _, f := range enc.Fanins(v) {
			if dep[f.Var()] {
				dep[v] = true
				break
			}
		}
		if dep[v] && tfi[v] {
			vars = append(vars, v)
		}
	}
	return &KeyCone{enc: enc, m: m, vars: vars, dep: dep,
		mp: make([]aig.Lit, enc.MaxVar()+1)}
}

// Simulate evaluates the key-independent nodes of the locked circuit on
// a batch of original-input patterns in one bit-parallel pass, for the
// Fold calls that follow. The simulation words are reused from batch to
// batch (sim.Vectors.RunPatterns).
func (kc *KeyCone) Simulate(xs [][]bool) {
	kc.vec.RunPatterns(kc.enc, xs, kc.m, kc.dep)
}

// Fold folds the key-only cone of pattern j of the last Simulate batch
// into dst, mapping key input i to keys[i], and returns its output
// literals — FoldInputs for that pattern at cone-sized instead of
// circuit-sized cost. The returned slice is valid until the next Fold.
func (kc *KeyCone) Fold(dst *aig.AIG, keys []aig.Lit, j int) []aig.Lit {
	enc := kc.enc
	if kc.m+len(keys) != enc.NumInputs() {
		panic("locking: KeyCone key width mismatch")
	}
	m := kc.mp
	for i, k := range keys {
		m[enc.InputVar(kc.m+i)] = k
	}
	// mf maps an enc literal: key-dependent vars were folded earlier in
	// the topological walk; everything else is a simulated constant.
	mf := func(l aig.Lit) aig.Lit {
		if kc.dep[l.Var()] {
			return m[l.Var()].NotIf(l.IsCompl())
		}
		if kc.vec.Bit(l, j) {
			return aig.ConstTrue
		}
		return aig.ConstFalse
	}
	for _, nv := range kc.vars {
		fan := enc.Fanins(nv)
		switch enc.Op(nv) {
		case aig.OpAnd:
			m[nv] = dst.And(mf(fan[0]), mf(fan[1]))
		case aig.OpXor:
			m[nv] = dst.Xor(mf(fan[0]), mf(fan[1]))
		case aig.OpMaj:
			m[nv] = dst.Maj(mf(fan[0]), mf(fan[1]), mf(fan[2]))
		}
	}
	kc.outs = kc.outs[:0]
	for i := 0; i < enc.NumOutputs(); i++ {
		kc.outs = append(kc.outs, mf(enc.Output(i)))
	}
	return kc.outs
}

// VerifyKey checks by SAT whether key restores orig exactly. The proof
// runs unbounded; use VerifyKeyContext to make it cancellable.
func (l *Locked) VerifyKey(orig *aig.AIG, key []bool) (bool, error) {
	return l.VerifyKeyContext(context.Background(), orig, key)
}

// VerifyKeyContext is VerifyKey under a cancellation context; a cancelled
// proof reports an "equivalence undecided" error.
func (l *Locked) VerifyKeyContext(ctx context.Context, orig *aig.AIG, key []bool) (bool, error) {
	return l.VerifyKeyWith(ctx, orig, key, cec.DefaultOptions())
}

// VerifyKeyWith is VerifyKeyContext under explicit equivalence-check
// options — e.g. SAT sweeping (cec.SweepOptions), budgets or tracing.
func (l *Locked) VerifyKeyWith(ctx context.Context, orig *aig.AIG, key []bool, opt cec.Options) (bool, error) {
	r, err := cec.Check(ctx, orig, l.ApplyKey(key), opt)
	if err != nil {
		return false, err
	}
	if !r.Decided {
		return false, fmt.Errorf("locking: equivalence undecided")
	}
	return r.Equivalent, nil
}

// Verify checks internal consistency and that the stored key restores the
// original function exactly.
func (l *Locked) Verify(orig *aig.AIG) error {
	if err := l.Validate(); err != nil {
		return err
	}
	ok, err := l.VerifyKey(orig, l.Key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("locking: stored key does not restore the circuit")
	}
	return nil
}

// VerifyWith is Verify under a cancellation context and explicit
// equivalence-check options (e.g. the swept checker).
func (l *Locked) VerifyWith(ctx context.Context, orig *aig.AIG, opt cec.Options) error {
	if err := l.Validate(); err != nil {
		return err
	}
	ok, err := l.VerifyKeyWith(ctx, orig, l.Key, opt)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("locking: stored key does not restore the circuit")
	}
	return nil
}

// WrongKeyIsWrong checks that the given wrong key corrupts the function.
func (l *Locked) WrongKeyIsWrong(orig *aig.AIG, key []bool) (bool, error) {
	ok, err := l.VerifyKey(orig, key)
	return !ok, err
}

// Oracle models the attacker's working chip: query-only access to the
// original function. It counts queries. An Oracle is not safe for
// concurrent use.
type Oracle struct {
	g       *aig.AIG
	Queries int
	vec     sim.Vectors // QueryBatch's simulation words, reused across calls
}

// NewOracle wraps the original circuit.
func NewOracle(g *aig.AIG) *Oracle { return &Oracle{g: g} }

// Query returns the oracle outputs for one input pattern.
func (o *Oracle) Query(x []bool) []bool {
	o.Queries++
	return o.g.Eval(x)
}

// QueryBatch answers a whole batch of input patterns in one bit-parallel
// simulation pass: the patterns are packed 64 to a word
// (sim.Vectors.RunPatterns) and the circuit is walked once, instead of
// once per pattern as with repeated Query calls. The result is
// positionally aligned with xs and bit-exact with serial Query answers.
//
// Queries grows by len(xs): a batched query is charged exactly like
// len(xs) serial queries, so batched and serial attacks are compared at
// equal oracle query counts.
func (o *Oracle) QueryBatch(xs [][]bool) [][]bool {
	o.Queries += len(xs)
	if len(xs) == 0 {
		return nil
	}
	if len(xs) == 1 {
		return [][]bool{o.g.Eval(xs[0])}
	}
	o.vec.RunPatterns(o.g, xs, o.g.NumInputs(), nil)
	ys := make([][]bool, len(xs))
	for j := range ys {
		ys[j] = make([]bool, o.g.NumOutputs())
	}
	for i := 0; i < o.g.NumOutputs(); i++ {
		for j := range xs {
			ys[j][i] = o.vec.Bit(o.g.Output(i), j)
		}
	}
	return ys
}

// NumInputs returns the oracle interface width.
func (o *Oracle) NumInputs() int { return o.g.NumInputs() }

// NumOutputs returns the oracle output width.
func (o *Oracle) NumOutputs() int { return o.g.NumOutputs() }

// KeyName returns the conventional name of key input i.
func KeyName(i int) string { return fmt.Sprintf("k%d", i) }

// FromNetlist reconstructs a Locked from an encrypted netlist by the key
// naming convention: the trailing inputs named k0, k1, ... are the key.
// The secret key is unknown (nil) — this is the attacker's view.
func FromNetlist(enc *aig.AIG, scheme string) (*Locked, error) {
	n := enc.NumInputs()
	// Find the first input named "k0" such that all following inputs are
	// k1, k2, ... to the end.
	for start := 0; start < n; start++ {
		if enc.InputName(start) != KeyName(0) {
			continue
		}
		ok := true
		for i := start; i < n; i++ {
			if enc.InputName(i) != KeyName(i-start) {
				ok = false
				break
			}
		}
		if ok {
			return &Locked{
				Scheme:    scheme,
				Enc:       enc,
				NumInputs: start,
				KeyBits:   n - start,
			}, nil
		}
	}
	return nil, fmt.Errorf("locking: no trailing k0,k1,... key inputs found")
}
