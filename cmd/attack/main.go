// Command attack evaluates locked netlists against the attack suite, and
// regenerates the paper's experiments at full scale.
//
// Attack a locked design (key inputs named k0, k1, ...):
//
//	attack -enc locked.bench -oracle design.bench -attack sat -timeout 1m
//
// Regenerate experiments (full benchmark suite — hours at paper scale):
//
//	attack -table1 -skews 10,20,30 -timeout 10m
//	attack -table1 -small -workers 4 -det   # deterministic parallel sweep
//	attack -fig4
//	attack -fig5
//	attack -structural
//
// Experiment modes run on a worker pool (-workers, default GOMAXPROCS)
// with per-cell seeds derived from -seed, so the emitted tables are
// byte-identical at any worker count; -det additionally replaces
// wall-clock cells with stable markers so the whole output (and
// metrics.json) is byte-for-byte reproducible. Ctrl-C cancels the run
// cleanly through every layer down to the SAT solvers.
//
// Observability (see DESIGN.md "Observability"):
//
//	-trace out.jsonl   full span/event stream as JSON Lines
//	-pprof prefix      write <prefix>.cpu.pprof, <prefix>.heap.pprof and
//	                   <prefix>.allocs.pprof; spans label the profiles
//	-ledger path       write a ledger.json run record at exit
//	-v                 print cumulative SAT-solver statistics
//	-metrics path      metrics.json written by -table1 (default metrics.json)
//
// The equivalence checks inside the removal and Valkyrie attacks share one
// base miter of the oracle and the locked netlist, SAT-swept once per
// attack by default (-sweep; see DESIGN.md "Pinned checks against one
// swept base"); each candidate then rebuilds only its fanout cone.
// -sweep=false runs no sweep: the base is only strashed.
//
// Exit status is non-zero when a key-recovery attack returns no key, so
// scripted resilience sweeps can branch on the result. A flag that the
// chosen mode or attack does not read (say -trace with -structural) is
// rejected with status 2 instead of being silently ignored.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"obfuslock"
	"obfuslock/internal/aig"
	"obfuslock/internal/attacks"
	"obfuslock/internal/bench"
	"obfuslock/internal/cec"
	"obfuslock/internal/cliflags"
	"obfuslock/internal/exec"
	"obfuslock/internal/experiments"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
	"obfuslock/internal/obs"
	"obfuslock/internal/sat"
)

// config is the parsed command line.
type config struct {
	encPath, oraclePath, attackName string
	timeout                         time.Duration
	maxIter                         int
	seed                            int64

	table1, fig4, fig5, structural bool
	small                          bool
	skews                          string
	workers                        int
	det                            bool
	sweepCEC                       bool

	solver      cliflags.Solver
	tele        cliflags.Telemetry
	verbose     bool
	metricsPath string
}

// register binds every flag of the tool onto fs.
func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.encPath, "enc", "", "encrypted .bench netlist")
	fs.StringVar(&c.oraclePath, "oracle", "", "original .bench netlist (the working chip)")
	fs.StringVar(&c.attackName, "attack", "sat", "attack: sat, appsat, sensitization, sps, removal, bypass, valkyrie, spi")
	fs.DurationVar(&c.timeout, "timeout", time.Minute, "attack timeout")
	fs.IntVar(&c.maxIter, "maxiter", 2048, "DIP iteration cap")
	fs.Int64Var(&c.seed, "seed", 1, "attack randomness seed")

	fs.BoolVar(&c.table1, "table1", false, "regenerate Table I on the full suite")
	fs.BoolVar(&c.fig4, "fig4", false, "regenerate Fig. 4 statistics (s9234)")
	fs.BoolVar(&c.fig5, "fig5", false, "regenerate Fig. 5 overheads")
	fs.BoolVar(&c.structural, "structural", false, "regenerate the structural-attack evaluation")
	fs.BoolVar(&c.small, "small", false, "use the reduced-size suite for experiment modes")
	fs.StringVar(&c.skews, "skews", "10,20,30", "comma-separated skewness levels for experiment modes")
	fs.IntVar(&c.workers, "workers", 0, "experiment parallelism (0: GOMAXPROCS)")
	fs.BoolVar(&c.det, "det", false, "deterministic sweep: no wall-clock cells or timeouts; output is byte-reproducible")
	fs.BoolVar(&c.sweepCEC, "sweep", true, "SAT-sweep (fraig) the base miter of removal/valkyrie once per attack")

	c.solver.Register(fs)
	c.tele.Register(fs)

	fs.BoolVar(&c.verbose, "v", false, "print cumulative SAT-solver statistics after the attack")
	fs.StringVar(&c.metricsPath, "metrics", "metrics.json", "machine-readable output of -table1")
}

func main() {
	var cfg config
	cfg.register(flag.CommandLine)
	flag.Parse()

	if err := validateFlags(flag.CommandLine, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "attack:", err)
		flag.Usage()
		os.Exit(2)
	}

	sess, err := cfg.tele.Start("attack")
	if err != nil {
		fatal(err)
	}
	defer sess.Finish()
	tracer := sess.Tracer

	// writeLedger runs both on normal returns (deferred) and explicitly on
	// the non-zero exit paths, which bypass deferred calls via os.Exit.
	writeLedger := func() {
		if err := sess.WriteLedger(); err != nil {
			fmt.Fprintln(os.Stderr, "attack:", err)
		}
	}
	defer writeLedger()

	// Ctrl-C / SIGTERM cancels the context; every layer down to the SAT
	// solvers polls it, so the run winds down instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	suite := netlistgen.Catalog()
	if cfg.small {
		suite = netlistgen.SmallSuite()
	}
	levels := parseSkews(cfg.skews)
	budget := experiments.Budget{
		Timeout:       cfg.timeout,
		MaxIterations: cfg.maxIter,
		Workers:       cfg.workers,
		Deterministic: cfg.det,
		NoSimp:        !cfg.solver.Simp,
		DIPBatch:      cfg.solver.DIPBatch,
		Trace:         tracer,
	}

	switch {
	case cfg.table1:
		rows, err := experiments.TableI(ctx, suite, levels, cfg.seed, budget, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if err := writeMetrics(cfg.metricsPath, rows); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d rows)\n", cfg.metricsPath, len(rows))
		return
	case cfg.fig4:
		b := suite[0]
		c := b.Build()
		before, after, err := experiments.Fig4(ctx, c, levels[0], cfg.seed, cfg.workers)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s @ %g bits\n", b.Name, levels[0])
		fmt.Printf("before: skew-hist=%v key-hist=%v max-skew=%.1f critical-visible=%v\n",
			before.SkewHist, before.KeyHist, before.MaxSkewBits, before.CriticalVisible)
		fmt.Printf("after:  skew-hist=%v key-hist=%v max-skew=%.1f critical-visible=%v\n",
			after.SkewHist, after.KeyHist, after.MaxSkewBits, after.CriticalVisible)
		return
	case cfg.fig5:
		if _, err := experiments.Fig5(ctx, suite, levels, cfg.seed, cfg.workers, os.Stdout); err != nil {
			fatal(err)
		}
		return
	case cfg.structural:
		if _, err := experiments.Structural(ctx, suite, levels[0], cfg.seed, cfg.workers, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	enc := readBench(cfg.encPath)
	orig := readBench(cfg.oraclePath)
	l, err := locking.FromNetlist(enc, "unknown")
	if err != nil {
		fatal(err)
	}
	if l.NumInputs != orig.NumInputs() {
		fatal(fmt.Errorf("oracle has %d inputs, locked design expects %d",
			orig.NumInputs(), l.NumInputs))
	}
	oracle := locking.NewOracle(orig)
	aopt := attacks.DefaultIOOptions()
	aopt.Timeout = cfg.timeout
	aopt.MaxIterations = cfg.maxIter
	aopt.Seed = cfg.seed
	aopt.Trace = tracer
	aopt.NoSimp = !cfg.solver.Simp
	aopt.DIPBatch = cfg.solver.DIPBatch

	// report prints the outcome and returns false when no key came back —
	// the caller exits non-zero so sweep scripts can branch on it.
	report := func(key []bool, extra string) bool {
		status := "no key"
		if key != nil {
			switch ok, err := l.VerifyKeyContext(ctx, orig, key); {
			case err != nil:
				status = "key undecided " + keyString(key)
			case ok:
				status = "CORRECT key " + keyString(key)
			default:
				status = "incorrect key " + keyString(key)
			}
		}
		fmt.Printf("%s: %s%s\n", cfg.attackName, status, extra)
		return key != nil
	}

	gotKey := true
	// The oracle-guided attacks (sat, appsat) dispatch through
	// the facade's attack registry — one code path instead of a switch arm
	// per attack; the analysis attacks below have bespoke outputs.
	if a, ok := obfuslock.AttackNamed(cfg.attackName); ok {
		r := a.Run(ctx, l, oracle, aopt)
		gotKey = report(r.Key, fmt.Sprintf(" (iters=%d queries=%d exact=%v timeout=%v runtime=%v)",
			r.Iterations, r.Queries, r.Exact, r.TimedOut, r.Runtime))
		printSolverStats(cfg.verbose, r.SolverStats)
		if !gotKey {
			writeLedger()
			sess.Finish()
			os.Exit(1)
		}
		return
	}
	switch cfg.attackName {
	case "sensitization":
		r := attacks.Sensitization(ctx, l, oracle, exec.WithConflicts(500000))
		fmt.Printf("sensitization: %d/%d key bits isolatable (timed-out=%v runtime=%v)\n",
			r.NumIsolatable, l.KeyBits, r.TimedOut, r.Runtime)
	case "sps":
		r := attacks.SPS(l, 256, cfg.seed, 10)
		fmt.Println("sps: top skewed nodes (candidate critical nodes):")
		for i, v := range r.Candidates {
			fmt.Printf("  n%d  %.1f bits\n", v, r.SkewBits[i])
		}
	case "removal":
		sps := attacks.SPS(l, 256, cfg.seed, 10)
		r := attacks.Removal(ctx, l, orig, sps.Candidates, cecOptions(cfg.sweepCEC, cfg.seed, tracer))
		fmt.Printf("removal: success=%v tried=%d undecided=%d runtime=%v\n", r.Success, r.Tried, r.Undecided, r.Runtime)
	case "bypass":
		wrong := make([]bool, l.KeyBits)
		r := attacks.Bypass(ctx, l, orig, wrong, 1024, exec.WithConflicts(1000000))
		fmt.Printf("bypass: success=%v patterns=%d exhausted=%v runtime=%v\n",
			r.Success, r.Patterns, r.Exhausted, r.Runtime)
	case "valkyrie":
		r := attacks.Valkyrie(ctx, l, orig, 8, 128, cfg.seed, cecOptions(cfg.sweepCEC, cfg.seed, tracer))
		fmt.Printf("valkyrie: found-pair=%v restore-only=%v pairs-tried=%d undecided=%d runtime=%v\n",
			r.FoundPair, r.RestoreOnly, r.PairsTried, r.Undecided, r.Runtime)
	case "spi":
		r := attacks.SPI(l, 6)
		gotKey = report(r.Key, fmt.Sprintf(" (xor-rule=%d point-rule=%d runtime=%v)",
			r.XORRuleHits, r.PointRuleHits, r.Runtime))
	}
	if !gotKey {
		writeLedger()
		sess.Finish()
		os.Exit(1)
	}
}

// cecOptions builds the equivalence-check configuration for the attacks
// that prove candidate modifications equivalent to the oracle.
func cecOptions(sweep bool, seed int64, tracer *obs.Tracer) cec.Options {
	opt := cec.DefaultOptions()
	if sweep {
		opt = cec.SweepOptions()
	}
	opt.Seed = seed
	opt.Trace = tracer
	return opt
}

// experimentFlags lists, per experiment mode, the flags its code path
// reads; attackFlags does the same for single-attack mode, keyed by the
// -attack name. Every mode also reads -seed, -pprof, -ledger and the mode
// switches, and single-attack mode reads -enc, -oracle and -attack. A
// flag set on the command line that its mode does not read is rejected
// instead of silently ignored.
var (
	experimentFlags = map[string][]string{
		"table1":     {"small", "skews", "workers", "det", "timeout", "maxiter", "simp", "dip-batch", "trace", "metrics"},
		"fig4":       {"small", "skews", "workers"},
		"fig5":       {"small", "skews", "workers"},
		"structural": {"small", "skews", "workers"},
	}
	attackFlags = map[string][]string{
		"sat":           {"timeout", "maxiter", "simp", "dip-batch", "trace", "v"},
		"appsat":        {"timeout", "maxiter", "simp", "dip-batch", "trace", "v"},
		"sensitization": nil,
		"sps":           nil,
		"removal":       {"sweep", "trace"},
		"bypass":        nil,
		"valkyrie":      {"sweep", "trace"},
		"spi":           nil,
	}
)

// validateFlags rejects inconsistent command lines before any work
// starts: exactly one experiment mode, or single-attack mode with both
// -enc and -oracle and a known attack; and no explicitly set flag that
// the chosen mode does not read.
func validateFlags(fs *flag.FlagSet, c *config) error {
	var modes []string
	for _, m := range []struct {
		name string
		on   bool
	}{{"table1", c.table1}, {"fig4", c.fig4}, {"fig5", c.fig5}, {"structural", c.structural}} {
		if m.on {
			modes = append(modes, m.name)
		}
	}
	if len(modes) > 1 {
		return fmt.Errorf("pick one experiment mode (-table1, -fig4, -fig5 or -structural)")
	}
	allowed := map[string]bool{
		"seed": true, "pprof": true, "ledger": true,
		"table1": true, "fig4": true, "fig5": true, "structural": true,
	}
	mode, reads := "", []string(nil)
	if len(modes) == 1 {
		mode, reads = "-"+modes[0], experimentFlags[modes[0]]
	} else {
		var known bool
		if reads, known = attackFlags[c.attackName]; !known {
			return fmt.Errorf("unknown attack %q", c.attackName)
		}
		mode = "-attack " + c.attackName
		allowed["enc"], allowed["oracle"], allowed["attack"] = true, true, true
	}
	for _, name := range reads {
		allowed[name] = true
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if !allowed[f.Name] {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return fmt.Errorf("%s not read by %s", strings.Join(unread, ", "), mode)
	}
	if len(modes) == 0 && (c.encPath == "" || c.oraclePath == "") {
		return fmt.Errorf("-enc and -oracle are required (or use an experiment mode)")
	}
	return nil
}

func writeMetrics(path string, rows []experiments.TableIRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return experiments.WriteMetricsJSON(f, rows)
}

func printSolverStats(verbose bool, st sat.Stats) {
	if !verbose {
		return
	}
	fmt.Printf("solver: decisions=%d propagations=%d conflicts=%d restarts=%d learnt=%d deleted=%d reductions=%d gcs=%d chrono=%d\n",
		st.Decisions, st.Propagations, st.Conflicts, st.Restarts,
		st.Learnt, st.Deleted, st.Reductions, st.GCs, st.Chrono)
}

func parseSkews(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad skew list %q: %v", s, err))
		}
		out = append(out, v)
	}
	return out
}

func readBench(path string) *aig.AIG {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	g, err := bench.Read(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return g
}

func keyString(key []bool) string {
	b := make([]byte, len(key))
	for i, v := range key {
		b[i] = '0'
		if v {
			b[i] = '1'
		}
	}
	return string(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "attack:", err)
	os.Exit(1)
}
