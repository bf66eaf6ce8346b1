package main

import (
	"strings"
	"time"

	"obfuslock/internal/obs"
)

// modules maps span-name prefixes to the layer that owns them: the
// benchmark's own spans around each call and the layers' spans inside.
// Together they cover nearly all of a pass; the rest (key binding,
// mapping) is too small to report.
var modules = []struct{ module, prefix string }{
	{"core", "core."}, {"core", "lock"},
	{"cec", "cec."}, {"fraig", "fraig."}, {"sat", "sat."},
	{"attacks", "attacks."}, {"attacks", "attack."},
}

func moduleOf(span string) string {
	for _, m := range modules {
		if strings.HasPrefix(span, m.prefix) {
			return m.module
		}
	}
	return "other"
}

// perLayer reports each layer's work per pass: busy time and allocations
// measured around the calls, self time and verdict counts from the spans,
// and the solver work the calls returned.
func perLayer(m *meter, setupM *meter, spans []obs.SpanData, passes []passStats, cases []*lockCase) map[string]metric {
	n := float64(len(passes))
	stats, covered := rollup(spans)
	span := func(name string) *spanStat {
		if st := stats[name]; st != nil {
			return st
		}
		return &spanStat{fields: map[string]int64{}}
	}
	out := map[string]metric{}
	secs := func(name string, d time.Duration) { out[name] = metric{d.Seconds() / n, "s"} }
	count := func(name string, v float64) { out[name] = metric{v / n, "count"} }

	var attackBusy time.Duration
	var attackCalls, attackAllocs float64
	for name, d := range m.busy {
		if strings.HasPrefix(name, "attacks.") {
			attackBusy += d
			attackCalls += float64(m.calls[name])
			attackAllocs += float64(m.allocs[name])
		}
	}
	selfByModule := map[string]time.Duration{}
	for name, st := range stats {
		selfByModule[moduleOf(name)] += st.self
	}
	for _, mod := range []string{"core", "cec", "fraig", "sat", "attacks"} {
		secs(mod+".self_s", selfByModule[mod])
	}

	count("core.lock.calls", float64(m.calls["core.lock"]))
	secs("core.lock.busy_s", m.busy["core.lock"])
	count("core.lock.allocs", float64(m.allocs["core.lock"]))
	secs("core.lock.cec.self_s", span("lock.cec").self)
	secs("core.lock.build_l.self_s", span("lock.build_l").self)
	secs("core.lock.rewrite.self_s", span("lock.rewrite").self)
	count("core.lock.blend_attempts", float64(span("lock.blend").calls))

	fn := span("cec.find_node")
	count("cec.find_node.calls", float64(fn.calls))
	secs("cec.find_node.self_s", fn.self)
	count("cec.find_node.sat_queries", float64(fn.fields["sat_queries"]))
	count("cec.find_node.found", float64(fn.fields["found"]))
	ck := span("cec.check")
	count("cec.check.calls", float64(ck.calls))
	secs("cec.check.self_s", ck.self)
	count("cec.check.undecided", float64(ck.fields["!decided"]))
	secs("cec.verify.busy_s", m.busy["cec.verify"])
	count("cec.verify.conflicts", float64(m.counts["cec.verify.conflicts"]))

	count("fraig.sweep.calls", float64(span("fraig.sweep").calls))
	secs("fraig.sweep.self_s", span("fraig.sweep").self)

	secs("sat.simplify.self_s", span("sat.simplify").self)
	count("sat.conflicts", float64(m.solver.Conflicts))
	count("sat.propagations", float64(m.solver.Propagations))
	count("sat.decisions", float64(m.solver.Decisions))

	count("attacks.calls", attackCalls)
	secs("attacks.busy_s", attackBusy)
	count("attacks.allocs", attackAllocs)
	for _, c := range []string{"attacks.sat.iterations", "attacks.appsat.iterations", "attacks.queries",
		"attacks.broken_cells", "attacks.valkyrie.pairs_tried"} {
		count(c, float64(m.counts[c]))
	}
	broken, dead := 0.0, 0.0
	for _, k := range cases {
		if k.broken {
			broken++
		}
		dead += float64(k.deadBits)
	}
	out["attacks.structural_break_frac"] = metric{broken / float64(len(cases)), "ratio"}

	secs("locking.verify_key.busy_s", m.busy["locking.verify_key"])
	count("locking.dead_key_bits", dead)
	secs("techmap.analyze.busy_s", m.busy["techmap.analyze"])
	out["netlistgen.build_s"] = metric{setupM.busy["netlistgen.build"].Seconds() / setupRepeats, "s"}

	var wall time.Duration
	for _, ps := range passes {
		wall += ps.wall
	}
	secs("trace.wall_s", wall)
	out["trace.span_coverage"] = metric{covered.Seconds() / wall.Seconds(), "ratio"}
	return out
}
