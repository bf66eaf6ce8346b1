// Command benchmark measures the paper's pipeline — lock a circuit, verify
// the lock, attack it — end to end and layer by layer, on one goroutine:
//
//	go run . -workload table1-det -seed 1 -seconds 25 -trace 0
//
// A run makes passes over the workload's circuits while the next pass is
// expected to end within -seconds; the first pass always runs, and every
// pass repeats the same deterministic cases. It prints one line per case
// and per pass, then one JSON object with the metrics: end-to-end ones
// untraced, per-layer ones with -trace 1. It exits 1 after printing when a
// correctness check failed. README.md describes the workloads, the metrics
// and the seed policy.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"obfuslock/internal/obs"
)

// setupRepeats is how often a run sets up; setup_s is the median, which
// lands on the warm set-up once the first few repeats have paid for cold
// caches.
const setupRepeats = 25

func main() {
	name := flag.String("workload", "", "workload: table1-det, attack-dip or structural")
	seed := flag.Int64("seed", 1, "seed of the wrong keys the verifier must reject")
	seconds := flag.Float64("seconds", 25, "measure for this many seconds")
	trace := flag.Int("trace", 0, "1: trace the run and report per-layer metrics")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: want -workload table1-det|attack-dip|structural -seed n -seconds s -trace 0|1")
		os.Exit(2)
	}
	var col *obs.Collector
	var tr *obs.Tracer
	if *trace == 1 {
		col = obs.NewCollector()
		tr = obs.New(col)
	}
	m := newMeter(tr)
	p := &pipeline{ctx: context.Background(), m: m}

	sm := newMeter(nil)
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		p.circuits = setup(sm, w)
		setups = append(setups, time.Since(t0).Seconds())
	}

	var cases []*lockCase
	var passes []passStats
	budget := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	for r := 0; r == 0 || time.Since(start)+passes[r-1].wall <= budget; r++ {
		t0 := time.Now()
		var ps passStats
		h := sha256.New()
		solver0 := m.solver
		for _, name := range w.circuits {
			k := p.runCase(w, *seed, name)
			cases = append(cases, k)
			ps.add(k)
			fmt.Printf("case pass=%d %s seed=%d lock_s=%.4f attack_s=%.4f area_pct=%.2f dead_key_bits=%d cells=%s failures=%q\n",
				r, k.bench, k.seed, k.lock.Seconds(), k.attack.Seconds(), k.areaPct, k.deadBits,
				strings.Join(k.cells, ","), k.failures)
			fmt.Fprintln(h, k.bench, lockFingerprint(k), strings.Join(k.cells, ","), k.deadBits)
		}
		ps.wall = time.Since(t0)
		passes = append(passes, ps)
		d := m.solver.Sub(solver0)
		fmt.Printf("pass %d output_digest=%x conflicts=%d propagations=%d decisions=%d wall_s=%.4f\n",
			r, h.Sum(nil)[:8], d.Conflicts, d.Propagations, d.Decisions, ps.wall.Seconds())
	}

	failed := 0
	for _, k := range cases {
		if len(k.failures) > 0 {
			failed++
		}
	}
	out := result{Correct: failed == 0, Attempted: len(cases), Failed: failed}
	if col == nil {
		out.Metrics = endToEnd(passes, setups, cases, peakRSSMB())
	} else {
		out.Metrics = perLayer(m, sm, col.Spans(), passes, cases)
	}
	js, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
	if !out.Correct {
		os.Exit(1)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passStats sums one pass over the workload's circuits.
type passStats struct {
	wall, lock, lockMax, attack time.Duration
}

func (ps *passStats) add(k *lockCase) {
	ps.lock += k.lock
	ps.lockMax = max(ps.lockMax, k.lockMax)
	ps.attack += k.attack
}

func lockFingerprint(k *lockCase) string {
	if k.res == nil {
		return "-"
	}
	return k.res.Locked.Enc.Fingerprint().String()
}

// endToEnd reports what a user of the pipeline sees: per-pass times as
// the median over the run's passes, set-up time, memory and overhead.
func endToEnd(passes []passStats, setups []float64, cases []*lockCase, rssMB float64) map[string]metric {
	med := func(f func(passStats) time.Duration) float64 {
		var xs []float64
		for _, ps := range passes {
			xs = append(xs, f(ps).Seconds())
		}
		return median(xs)
	}
	var area []float64
	for _, k := range cases {
		if k.res != nil {
			area = append(area, k.areaPct)
		}
	}
	return map[string]metric{
		"wall_s":            {med(func(ps passStats) time.Duration { return ps.wall }), "s"},
		"setup_s":           {median(setups), "s"},
		"lock_s":            {med(func(ps passStats) time.Duration { return ps.lock }), "s"},
		"lock_max_s":        {med(func(ps passStats) time.Duration { return ps.lockMax }), "s"},
		"attack_s":          {med(func(ps passStats) time.Duration { return ps.attack }), "s"},
		"peak_rss_mb":       {rssMB, "MB"},
		"area_overhead_pct": {mean(area), "%"},
	}
}

// peakRSSMB is the process's resident-set high-water mark, as the run
// ledger records it.
func peakRSSMB() float64 {
	l := obs.NewLedger("benchmark")
	l.Finish(nil)
	return float64(l.PeakRSSBytes) / (1 << 20)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
