package simp

import "testing"

// The zero value must stay the recommended everything-on configuration;
// only Disable turns simplification off.
func TestEnabled(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		want bool
	}{
		{"zero", Options{}, true},
		{"default", Default(), true},
		{"off", Off(), false},
		{"no var elim", Options{NoVarElim: true}, true},
	}
	for _, c := range cases {
		if got := c.o.Enabled(); got != c.want {
			t.Errorf("%s: Enabled() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestInprocessDue(t *testing.T) {
	// One pass every 16 rounds, counted from round 1.
	o := Options{}
	for round, want := range map[int]bool{0: false, 1: false, 15: false, 16: true, 32: true, 33: false} {
		if got := o.InprocessDue(round); got != want {
			t.Errorf("round %d: got %v, want %v", round, got, want)
		}
	}
	// The cadence ignores NoVarElim; a disabled config never inprocesses.
	if !(Options{NoVarElim: true}).InprocessDue(16) {
		t.Error("equivalence-only options must inprocess on the cadence")
	}
	if Off().InprocessDue(16) {
		t.Error("disabled options must never inprocess")
	}
}
