package main

import (
	"sort"
	"time"

	"obfuslock/internal/obs"
)

// spanStat aggregates the completed spans of one name.
type spanStat struct {
	calls int64
	total time.Duration
	// self is total minus the time covered by spans nested inside.
	self time.Duration
	// fields sums the integer end fields and counts the true boolean
	// ones (found=true, decided=false is counted under "!decided").
	fields map[string]int64
}

// rollup attributes the spans' time to their names by interval
// containment: a span's self time is its duration minus the durations of
// the spans directly nested inside it in time. Parent IDs cannot be used
// here: every layer opens root spans of its own (a cec.find_node inside a
// lock.cec has parent 0), so nesting by ID would count the same interval
// under two names. Nesting by time is exact because the benchmark runs all
// work on one goroutine. covered is the time under some span.
func rollup(spans []obs.SpanData) (stats map[string]*spanStat, covered time.Duration) {
	s := append([]obs.SpanData(nil), spans...)
	sort.Slice(s, func(i, j int) bool {
		if !s[i].Start.Equal(s[j].Start) {
			return s[i].Start.Before(s[j].Start)
		}
		if s[i].Duration != s[j].Duration {
			return s[i].Duration > s[j].Duration
		}
		return s[i].ID < s[j].ID
	})
	type open struct {
		end time.Time
		st  *spanStat
	}
	stats = map[string]*spanStat{}
	var stack []open
	for _, sd := range s {
		for len(stack) > 0 && !stack[len(stack)-1].end.After(sd.Start) {
			stack = stack[:len(stack)-1]
		}
		st := stats[sd.Name]
		if st == nil {
			st = &spanStat{fields: map[string]int64{}}
			stats[sd.Name] = st
		}
		st.calls++
		st.total += sd.Duration
		st.self += sd.Duration
		for _, f := range sd.Fields {
			switch v := f.Value().(type) {
			case int64:
				st.fields[f.Key] += v
			case bool:
				if v {
					st.fields[f.Key]++
				} else {
					st.fields["!"+f.Key]++
				}
			}
		}
		if len(stack) > 0 {
			stack[len(stack)-1].st.self -= sd.Duration
		} else {
			covered += sd.Duration
		}
		stack = append(stack, open{sd.Start.Add(sd.Duration), st})
	}
	return stats, covered
}
