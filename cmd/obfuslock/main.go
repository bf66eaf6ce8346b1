// Command obfuslock locks a gate-level netlist with ObfusLock.
//
// Usage:
//
//	obfuslock -in design.bench -skew 20 -out locked.bench -key key.txt
//	obfuslock -bench c6288 -skew 30 -sub -out locked.bench
//
// The locked netlist's key inputs are named k0, k1, ...; the correct key
// is written to -key as a 0/1 string (k0 first).
//
// The -verify proof runs SAT-swept by default (-sweep; see DESIGN.md
// "Equivalence checking & SAT sweeping"); -sweep=false forces the
// monolithic miter.
//
// With -resilience <duration> the tool additionally attacks its own
// output: the oracle-guided SAT attack runs for that long as a
// self-check that the lock resists what it claims to resist (-dip-batch
// sets the attack's DIP batching width, -simp=false turns off its CNF
// pre-/inprocessing).
//
// Observability (see DESIGN.md "Observability"): -trace out.jsonl records
// every lock phase as a JSON-Lines span/event stream, -pprof prefix
// writes <prefix>.cpu.pprof during the run plus <prefix>.heap.pprof and
// <prefix>.allocs.pprof at exit (spans label the profiles), -ledger
// writes a ledger.json run record with per-span totals, and -v prints
// the critical-node verdict and the blend attempts.
//
// A flag the run does not read is rejected with status 2 instead of
// being silently ignored: -simp or -dip-batch without -resilience, -sweep
// with -verify=false, and -mincut without -sub.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"obfuslock"
	"obfuslock/internal/cliflags"
	"obfuslock/internal/obs"
)

// config is the parsed command line.
type config struct {
	in, benchName, out, keyOut string
	skewBits                   float64
	seed                       int64
	sub                        bool
	minCut, output             int
	noRewrite, verify, sweep   bool
	resilience                 time.Duration
	verbose                    bool

	solver cliflags.Solver
	tele   cliflags.Telemetry
}

// register binds every flag of the tool onto fs.
func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.in, "in", "", "input .bench netlist")
	fs.StringVar(&c.benchName, "bench", "", "lock a built-in benchmark instead of -in")
	fs.StringVar(&c.out, "out", "locked.bench", "output locked netlist")
	fs.StringVar(&c.keyOut, "key", "key.txt", "output key file")
	fs.Float64Var(&c.skewBits, "skew", 20, "target skewness in bits")
	fs.Int64Var(&c.seed, "seed", 1, "construction seed")
	fs.BoolVar(&c.sub, "sub", false, "lock a sub-circuit behind a reachable cut (for large designs)")
	fs.IntVar(&c.minCut, "mincut", 0, "minimum sub-circuit cut width (0: derived)")
	fs.IntVar(&c.output, "po", -1, "protected output index (-1: deepest cone)")
	fs.BoolVar(&c.noRewrite, "norewrite", false, "skip the final functional-rewriting pass")
	fs.BoolVar(&c.verify, "verify", true, "prove key correctness by SAT equivalence checking")
	fs.DurationVar(&c.resilience, "resilience", 0, "after locking, self-check resilience by running the SAT attack with this time budget (0: skip)")
	fs.BoolVar(&c.sweep, "sweep", true, "use SAT sweeping (fraig) for the -verify equivalence proof")

	c.solver.Register(fs)
	c.tele.Register(fs)

	fs.BoolVar(&c.verbose, "v", false, "print the critical-node verdict and blend attempts")
}

// validateFlags rejects an explicitly set flag that the run does not
// read: -simp and -dip-batch only tune the -resilience attack, -sweep
// only the -verify proof, and -mincut only the -sub cut.
func validateFlags(fs *flag.FlagSet, c *config) error {
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		switch {
		case (f.Name == "dip-batch" || f.Name == "simp") && c.resilience <= 0:
			unread = append(unread, "-"+f.Name+" not read without -resilience")
		case f.Name == "sweep" && !c.verify:
			unread = append(unread, "-sweep not read with -verify=false")
		case f.Name == "mincut" && !c.sub:
			unread = append(unread, "-mincut not read without -sub")
		}
	})
	if len(unread) > 0 {
		return errors.New(strings.Join(unread, "; "))
	}
	return nil
}

func main() {
	var cfg config
	cfg.register(flag.CommandLine)
	flag.Parse()
	if err := validateFlags(flag.CommandLine, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "obfuslock:", err)
		flag.Usage()
		os.Exit(2)
	}
	sess, err := cfg.tele.Start("obfuslock")
	if err != nil {
		fatal(err)
	}
	defer sess.Finish()
	tracer := sess.Tracer

	// Ctrl-C / SIGTERM cancels the lock construction down to its SAT
	// solves instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var c *obfuslock.Circuit
	switch {
	case cfg.benchName != "":
		found := false
		for _, b := range append(obfuslock.Benchmarks(), obfuslock.SmallBenchmarks()...) {
			if b.Name == cfg.benchName {
				c = b.Build()
				found = true
				break
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown benchmark %q (try benchgen -list)", cfg.benchName))
		}
	case cfg.in != "":
		f, err := os.Open(cfg.in)
		if err != nil {
			fatal(err)
		}
		c, err = obfuslock.ReadBench(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("one of -in or -bench is required"))
	}

	opt := obfuslock.DefaultOptions()
	opt.TargetSkewBits = cfg.skewBits
	opt.Seed = cfg.seed
	opt.SubCircuit = cfg.sub
	opt.SubCircuitMinCut = cfg.minCut
	opt.ProtectedOutput = cfg.output
	opt.FinalRewrite = !cfg.noRewrite
	opt.Trace = tracer

	res, err := obfuslock.LockContext(ctx, c, opt)
	if err != nil {
		fatal(err)
	}
	rep := res.Report
	fmt.Printf("mode=%s key-bits=%d skew=%.1f bits L-nodes=%d attachments=%d\n",
		rep.Mode, rep.KeyBits, rep.SkewBits, rep.LockingNodes, rep.Attachments)
	fmt.Printf("nodes %d -> %d, runtime %v\n", rep.OrigNodes, rep.EncNodes, rep.Runtime)
	if cfg.verbose {
		critical := rep.CriticalNode
		if critical == "" {
			critical = "unchecked"
		}
		fmt.Printf("critical-node=%s blend-attempts=%d\n", critical, rep.BlendAttempts)
	}

	if cfg.verify {
		vsp := tracer.Span("verify", obs.Bool("sweep", cfg.sweep))
		copt := obfuslock.DefaultCECOptions()
		if cfg.sweep {
			copt = obfuslock.SweepCECOptions()
		}
		copt.Seed = cfg.seed
		copt.Trace = tracer
		err := res.Locked.VerifyWith(ctx, c, copt)
		if err != nil {
			vsp.End(obs.Str("error", err.Error()))
			fatal(fmt.Errorf("verification failed: %w", err))
		}
		vsp.End()
		fmt.Println("verified: correct key restores the original function")
	}

	if cfg.resilience > 0 {
		rsp := tracer.Span("resilience", obs.Dur("budget", cfg.resilience))
		aopt := obfuslock.DefaultAttackOptions()
		aopt.Timeout = cfg.resilience
		aopt.Seed = cfg.seed
		aopt.Trace = tracer
		aopt.NoSimp = !cfg.solver.Simp
		aopt.DIPBatch = cfg.solver.DIPBatch
		a, _ := obfuslock.AttackNamed("sat")
		r := a.Run(ctx, res.Locked, obfuslock.NewOracle(c), aopt)
		rsp.End(obs.Bool("key_found", r.Key != nil),
			obs.Int("iterations", int64(r.Iterations)),
			obs.Int("queries", int64(r.Queries)))
		if r.Key != nil {
			fmt.Printf("resilience: BROKEN — SAT attack recovered a key in %v (%d iterations, %d queries)\n",
				r.Runtime, r.Iterations, r.Queries)
		} else {
			fmt.Printf("resilience: survived a %v SAT attack (%d iterations, %d queries)\n",
				cfg.resilience, r.Iterations, r.Queries)
		}
	}

	of, err := os.Create(cfg.out)
	if err != nil {
		fatal(err)
	}
	if err := obfuslock.WriteBench(of, res.Locked.Enc); err != nil {
		fatal(err)
	}
	of.Close()

	key := make([]byte, res.Locked.KeyBits)
	for i, b := range res.Locked.Key {
		key[i] = '0'
		if b {
			key[i] = '1'
		}
	}
	if err := os.WriteFile(cfg.keyOut, append(key, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s and %s\n", cfg.out, cfg.keyOut)

	if err := sess.WriteLedger(); err != nil {
		fatal(err)
	}
	if sess.Ledger != nil {
		fmt.Printf("wrote %s\n", cfg.tele.LedgerPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obfuslock:", err)
	os.Exit(1)
}
