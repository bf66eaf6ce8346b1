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
// sets the attack's DIP batching width).
//
// Observability (see DESIGN.md "Observability"): -trace out.jsonl records
// every lock phase as a JSON-Lines span/event stream, -pprof prefix
// writes <prefix>.cpu.pprof during the run plus <prefix>.heap.pprof and
// <prefix>.allocs.pprof at exit (spans label the profiles), -ledger
// writes a ledger.json run record, and -v prints the critical-node
// verdict and the blend attempts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"obfuslock"
	"obfuslock/internal/cliflags"
)

func main() {
	in := flag.String("in", "", "input .bench netlist")
	benchName := flag.String("bench", "", "lock a built-in benchmark instead of -in")
	out := flag.String("out", "locked.bench", "output locked netlist")
	keyOut := flag.String("key", "key.txt", "output key file")
	skewBits := flag.Float64("skew", 20, "target skewness in bits")
	seed := flag.Int64("seed", 1, "construction seed")
	sub := flag.Bool("sub", false, "lock a sub-circuit behind a reachable cut (for large designs)")
	minCut := flag.Int("mincut", 0, "minimum sub-circuit cut width (0: derived)")
	output := flag.Int("po", -1, "protected output index (-1: deepest cone)")
	noRewrite := flag.Bool("norewrite", false, "skip the final functional-rewriting pass")
	verify := flag.Bool("verify", true, "prove key correctness by SAT equivalence checking")
	resilience := flag.Duration("resilience", 0, "after locking, self-check resilience by running the SAT attack with this time budget (0: skip)")
	sweep := flag.Bool("sweep", true, "use SAT sweeping (fraig) for the -verify equivalence proof")

	var solver cliflags.Solver
	var tele cliflags.Telemetry
	solver.Register(flag.CommandLine)
	tele.Register(flag.CommandLine)

	verbose := flag.Bool("v", false, "print the critical-node verdict and blend attempts")
	flag.Parse()

	sess, err := tele.Start("obfuslock")
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
	case *benchName != "":
		found := false
		for _, b := range append(obfuslock.Benchmarks(), obfuslock.SmallBenchmarks()...) {
			if b.Name == *benchName {
				c = b.Build()
				found = true
				break
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown benchmark %q (try benchgen -list)", *benchName))
		}
	case *in != "":
		f, err := os.Open(*in)
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

	sopt := solver.SimpOptions()

	opt := obfuslock.DefaultOptions()
	opt.TargetSkewBits = *skewBits
	opt.Seed = *seed
	opt.SubCircuit = *sub
	opt.SubCircuitMinCut = *minCut
	opt.ProtectedOutput = *output
	opt.FinalRewrite = !*noRewrite
	opt.Trace = tracer
	opt.Simp = sopt

	res, err := obfuslock.LockContext(ctx, c, opt)
	if err != nil {
		fatal(err)
	}
	rep := res.Report
	fmt.Printf("mode=%s key-bits=%d skew=%.1f bits L-nodes=%d attachments=%d\n",
		rep.Mode, rep.KeyBits, rep.SkewBits, rep.LockingNodes, rep.Attachments)
	fmt.Printf("nodes %d -> %d, runtime %v\n", rep.OrigNodes, rep.EncNodes, rep.Runtime)
	if *verbose {
		critical := rep.CriticalNode
		if critical == "" {
			critical = "unchecked"
		}
		fmt.Printf("critical-node=%s blend-attempts=%d\n", critical, rep.BlendAttempts)
	}

	if *verify {
		vsp := tracer.Span("verify", obfuslock.TraceBool("sweep", *sweep))
		copt := obfuslock.DefaultCECOptions()
		if *sweep {
			copt = obfuslock.SweepCECOptions()
		}
		copt.Seed = *seed
		copt.Trace = tracer
		copt.Simp = sopt
		err := res.Locked.VerifyWith(ctx, c, copt)
		if err != nil {
			vsp.End(obfuslock.TraceStr("error", err.Error()))
			fatal(fmt.Errorf("verification failed: %w", err))
		}
		vsp.End()
		fmt.Println("verified: correct key restores the original function")
	}

	if *resilience > 0 {
		rsp := tracer.Span("resilience", obfuslock.TraceDur("budget", *resilience))
		aopt := obfuslock.DefaultAttackOptions()
		aopt.Timeout = *resilience
		aopt.Seed = *seed
		aopt.Trace = tracer
		aopt.Simp = sopt
		aopt.DIPBatch = solver.DIPBatch
		a, _ := obfuslock.AttackNamed("sat")
		r := a.Run(ctx, res.Locked, obfuslock.NewOracle(c), aopt)
		rsp.End(obfuslock.TraceBool("key_found", r.Key != nil),
			obfuslock.TraceInt("iterations", int64(r.Iterations)),
			obfuslock.TraceInt("queries", int64(r.Queries)))
		if r.Key != nil {
			fmt.Printf("resilience: BROKEN — SAT attack recovered a key in %v (%d iterations, %d queries)\n",
				r.Runtime, r.Iterations, r.Queries)
		} else {
			fmt.Printf("resilience: survived a %v SAT attack (%d iterations, %d queries)\n",
				*resilience, r.Iterations, r.Queries)
		}
	}

	of, err := os.Create(*out)
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
	if err := os.WriteFile(*keyOut, append(key, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s and %s\n", *out, *keyOut)

	if err := sess.WriteLedger(); err != nil {
		fatal(err)
	}
	if sess.Ledger != nil {
		fmt.Printf("wrote %s\n", tele.LedgerPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obfuslock:", err)
	os.Exit(1)
}
