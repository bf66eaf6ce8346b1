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
		{"equivalence", Equivalence(), true},
	}
	for _, c := range cases {
		if got := c.o.Enabled(); got != c.want {
			t.Errorf("%s: Enabled() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestInprocessDue(t *testing.T) {
	// Consumer default cadence applies when InprocessEvery is 0.
	o := Options{}
	for round, want := range map[int]bool{0: false, 1: false, 15: false, 16: true, 32: true, 33: false} {
		if got := o.InprocessDue(round, 16); got != want {
			t.Errorf("default cadence, round %d: got %v, want %v", round, got, want)
		}
	}
	// Explicit cadence overrides the default.
	o.InprocessEvery = 4
	if !o.InprocessDue(4, 16) || o.InprocessDue(16+2, 16) && !o.InprocessDue(8, 16) {
		t.Error("explicit cadence ignored")
	}
	// Negative disables inprocessing entirely; so does a disabled config
	// and a zero default cadence.
	o.InprocessEvery = -1
	if o.InprocessDue(100, 16) {
		t.Error("negative InprocessEvery must disable inprocessing")
	}
	if Off().InprocessDue(16, 16) {
		t.Error("disabled options must never inprocess")
	}
	if (Options{}).InprocessDue(16, 0) {
		t.Error("zero default cadence must mean no inprocessing")
	}
}
