package main

import (
	"testing"
	"time"

	"obfuslock/internal/obs"
)

var t0 = time.Unix(1700000000, 0)

// span builds an ended span over [from, to) milliseconds after t0. Parent
// IDs are all 0, as for the layers' own root spans: the rollup must nest
// by time alone.
func span(id uint64, name string, from, to int, fields ...obs.Field) obs.SpanData {
	return obs.SpanData{
		ID: id, Name: name,
		Start:    t0.Add(time.Duration(from) * time.Millisecond),
		Duration: time.Duration(to-from) * time.Millisecond,
		Fields:   fields,
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestRollupNestsByTime(t *testing.T) {
	cases := []struct {
		name    string
		spans   []obs.SpanData
		self    map[string]time.Duration
		total   map[string]time.Duration
		covered time.Duration
	}{
		{
			name: "root spans nested three deep",
			spans: []obs.SpanData{
				span(1, "lock.cec", 0, 10),
				span(2, "cec.find_node", 2, 6),
				span(3, "sat.simplify", 3, 4),
			},
			self:    map[string]time.Duration{"lock.cec": ms(6), "cec.find_node": ms(3), "sat.simplify": ms(1)},
			covered: ms(10),
		},
		{
			name: "siblings and a gap between roots",
			spans: []obs.SpanData{
				span(4, "cec.check", 20, 30),
				span(1, "core.lock", 0, 10),
				span(2, "lock.build_l", 1, 3),
				span(3, "lock.cec", 5, 9),
			},
			self:    map[string]time.Duration{"core.lock": ms(4), "lock.build_l": ms(2), "lock.cec": ms(4), "cec.check": ms(10)},
			covered: ms(20),
		},
		{
			name: "child starting with its parent",
			spans: []obs.SpanData{
				span(2, "lock", 0, 5),
				span(1, "core.lock", 0, 10),
			},
			self:    map[string]time.Duration{"core.lock": ms(5), "lock": ms(5)},
			covered: ms(10),
		},
		{
			name: "same name nested in itself",
			spans: []obs.SpanData{
				span(1, "cec.check", 0, 10),
				span(2, "cec.check", 2, 4),
			},
			self:    map[string]time.Duration{"cec.check": ms(10)},
			total:   map[string]time.Duration{"cec.check": ms(12)},
			covered: ms(10),
		},
		{
			name: "zero-length span at a parent's end is not its child",
			spans: []obs.SpanData{
				span(1, "a", 0, 10),
				span(2, "b", 10, 10),
			},
			self:    map[string]time.Duration{"a": ms(10), "b": 0},
			covered: ms(10),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats, covered := rollup(tc.spans)
			for name, want := range tc.self {
				if got := stats[name].self; got != want {
					t.Errorf("%s self = %v, want %v", name, got, want)
				}
			}
			for name, want := range tc.total {
				if got := stats[name].total; got != want {
					t.Errorf("%s total = %v, want %v", name, got, want)
				}
			}
			if covered != tc.covered {
				t.Errorf("covered = %v, want %v", covered, tc.covered)
			}
		})
	}
}

func TestRollupSumsEndFields(t *testing.T) {
	stats, _ := rollup([]obs.SpanData{
		span(1, "cec.find_node", 0, 1, obs.Bool("found", true), obs.Int("sat_queries", 3)),
		span(2, "cec.find_node", 2, 3, obs.Bool("found", false), obs.Int("sat_queries", 4)),
		span(3, "cec.check", 4, 5, obs.Bool("decided", false), obs.Str("mode", "swept")),
	})
	fn := stats["cec.find_node"]
	if fn.calls != 2 || fn.fields["found"] != 1 || fn.fields["!found"] != 1 || fn.fields["sat_queries"] != 7 {
		t.Errorf("find_node = %+v", fn)
	}
	if got := stats["cec.check"].fields["!decided"]; got != 1 {
		t.Errorf("undecided checks = %d, want 1", got)
	}
}
