package sat

import (
	"reflect"
	"testing"
)

// Stats.Sub and Stats.Add are written out field by field, so a newly
// added counter silently vanishes from attack deltas and summed
// aggregates if either method is not extended. Setting every field to a
// distinct value via reflection and checking the arithmetic identities
// catches a forgotten field no matter what it is called.
func TestStatsSubAddCoverEveryField(t *testing.T) {
	var a, b Stats
	ra := reflect.ValueOf(&a).Elem()
	rb := reflect.ValueOf(&b).Elem()
	for i := 0; i < ra.NumField(); i++ {
		f := ra.Type().Field(i)
		if f.Type.Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is %v; counters are expected to be int64", f.Name, f.Type)
		}
		ra.Field(i).SetInt(int64(1000 + i))
		rb.Field(i).SetInt(int64(i + 1))
	}
	var zero Stats
	if got := a.Sub(zero); got != a {
		t.Errorf("a.Sub(zero) = %+v, want %+v — a field is missing from Sub", got, a)
	}
	if got := a.Sub(a); got != zero {
		t.Errorf("a.Sub(a) = %+v, want zero — a field is missing from Sub", got)
	}
	if got := zero.Add(a); got != a {
		t.Errorf("zero.Add(a) = %+v, want %+v — a field is missing from Add", got, a)
	}
	// Sub must invert Add on every field: (a+b)-b == a.
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("a.Add(b).Sub(b) = %+v, want %+v", got, a)
	}
}
