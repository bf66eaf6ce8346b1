package locking

import (
	"testing"

	"obfuslock/internal/aig"
)

// toy returns a locked circuit with 2 original inputs and 2 key inputs:
// f = (a ^ k0) & (b ^ k1); correct key 00.
func toy() (*aig.AIG, *Locked) {
	orig := aig.New()
	a := orig.AddInput("a")
	b := orig.AddInput("b")
	orig.AddOutput(orig.And(a, b), "f")

	enc := aig.New()
	ea := enc.AddInput("a")
	eb := enc.AddInput("b")
	k0 := enc.AddInput(KeyName(0))
	k1 := enc.AddInput(KeyName(1))
	enc.AddOutput(enc.And(enc.Xor(ea, k0), enc.Xor(eb, k1)), "f")
	return orig, &Locked{
		Scheme: "toy", Enc: enc,
		NumInputs: 2, KeyBits: 2, Key: []bool{false, false},
	}
}

func TestValidate(t *testing.T) {
	_, l := toy()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	l.KeyBits = 3
	if err := l.Validate(); err == nil {
		t.Fatal("expected input-count mismatch")
	}
	l.KeyBits = 2
	l.Key = []bool{true}
	if err := l.Validate(); err == nil {
		t.Fatal("expected key-length mismatch")
	}
}

func TestApplyKeyAndVerify(t *testing.T) {
	orig, l := toy()
	if err := l.Verify(orig); err != nil {
		t.Fatal(err)
	}
	ok, err := l.VerifyKey(orig, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("wrong key accepted")
	}
	broke, err := l.WrongKeyIsWrong(orig, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if !broke {
		t.Fatal("wrong key not flagged")
	}
	// The correct key gives back the original.
	u := l.ApplyKey(l.Key)
	for m := 0; m < 4; m++ {
		pat := []bool{m&1 == 1, m>>1&1 == 1}
		if u.Eval(pat)[0] != orig.Eval(pat)[0] {
			t.Fatal("correct key differs from original")
		}
	}
}

func TestOracleCountsQueries(t *testing.T) {
	orig, _ := toy()
	o := NewOracle(orig)
	if o.NumInputs() != 2 || o.NumOutputs() != 1 {
		t.Fatal("oracle interface wrong")
	}
	o.Query([]bool{true, true})
	o.Query([]bool{false, true})
	if o.Queries != 2 {
		t.Fatalf("queries = %d", o.Queries)
	}
}

func TestBindInputs(t *testing.T) {
	_, l := toy()
	spec := BindInputs(l.Enc, 2, []bool{true, true})
	if spec.NumInputs() != 2 {
		t.Fatalf("spec inputs = %d, want 2 (keys only)", spec.NumInputs())
	}
	// spec(k0,k1) = (1^k0)&(1^k1) = !k0 & !k1.
	for m := 0; m < 4; m++ {
		pat := []bool{m&1 == 1, m>>1&1 == 1}
		want := !pat[0] && !pat[1]
		if spec.Eval(pat)[0] != want {
			t.Fatalf("BindInputs wrong at %v", pat)
		}
	}
}

func TestFromNetlist(t *testing.T) {
	_, l := toy()
	got, err := FromNetlist(l.Enc, "recovered")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumInputs != 2 || got.KeyBits != 2 {
		t.Fatalf("recovered shape: %+v", got)
	}
	if got.Key != nil {
		t.Fatal("recovered key must be unknown")
	}
	// No key inputs at all.
	g := aig.New()
	g.AddInput("a")
	g.AddOutput(g.Input(0), "f")
	if _, err := FromNetlist(g, "x"); err == nil {
		t.Fatal("expected error for keyless netlist")
	}
}
