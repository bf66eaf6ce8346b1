package obfuslock

import (
	"testing"

	"obfuslock/internal/sat"
)

// work is the search effort of one benchmark op.
type work struct{ Decisions, Propagations, Conflicts int64 }

func workOf(st sat.Stats) work { return work{st.Decisions, st.Propagations, st.Conflicts} }

// TestSolverWorkPinned pins the SAT work of one op of each SAT-heavy
// micro-benchmark: the swept and monolithic equivalence checks of
// BenchmarkFraigCEC, and the serial SAT attack of BenchmarkSATAttackSimp
// with preprocessing on and off. The search is deterministic, so an
// exact mismatch means the solver, the preprocessor, the sweep or the
// DIP loop now explores differently; a change that does so on purpose
// states the new counts. Preprocessing must also pay in search: the
// simp-on attack may do no more propagations and no more decisions than
// simp-off. (Its wall time on this instance is within run noise of
// simp-off, so time is not what is gated.)
func TestSolverWorkPinned(t *testing.T) {
	want := map[string]work{
		"FraigCEC/monolithic": {12948, 181305, 3571},
		"FraigCEC/swept":      {5190, 126181, 1539},
		"SATAttackSimp/on":    {1631, 37732, 585},
		"SATAttackSimp/off":   {1691, 45908, 544},
	}
	got := map[string]work{}
	c, rw := fraigCECPair()
	for _, mode := range []string{"monolithic", "swept"} {
		got["FraigCEC/"+mode] = workOf(runFraigCEC(t, c, rw, mode).SolverStats)
	}
	l, oracle := simpAttackInstance(t)
	for _, mode := range []string{"on", "off"} {
		got["SATAttackSimp/"+mode] = workOf(runSimpAttack(t, l, oracle, mode).SolverStats)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: solver work %+v, want %+v", name, got[name], w)
		}
	}
	on, off := got["SATAttackSimp/on"], got["SATAttackSimp/off"]
	if on.Propagations > off.Propagations || on.Decisions > off.Decisions {
		t.Errorf("preprocessing does not pay: simp-on %+v, simp-off %+v", on, off)
	}
}

// raceEnabled reports a -race build (race_test.go), whose
// instrumentation adds about 500 allocations per attack op.
var raceEnabled bool

// TestSATAttackSimpAllocCeiling keeps the solver's pooled hot paths
// pooled: one BenchmarkSATAttackSimp op may allocate at most its
// measured count (Go 1.24) plus half an allocation per conflict of the
// op, so a regression to one heap allocation per conflict fails while
// the ceiling still leaves about 3% of slack. Most of the op's
// allocations build the DIP constraints; the search itself amortizes to
// near zero.
func TestSATAttackSimpAllocCeiling(t *testing.T) {
	base := map[string]float64{"on": 10708, "off": 9965}
	if raceEnabled {
		base = map[string]float64{"on": 11215, "off": 10473}
	}
	l, oracle := simpAttackInstance(t)
	for _, mode := range []string{"on", "off"} {
		var conflicts int64
		allocs := testing.AllocsPerRun(3, func() {
			conflicts = runSimpAttack(t, l, oracle, mode).SolverStats.Conflicts
		})
		if ceiling := base[mode] + float64(conflicts)/2; allocs > ceiling {
			t.Errorf("simp %s: %.0f allocations per attack, ceiling %.0f", mode, allocs, ceiling)
		}
	}
}
