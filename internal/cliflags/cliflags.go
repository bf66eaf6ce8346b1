// Package cliflags factors the flag plumbing shared by the obfuslock and
// attack CLIs into two reusable groups — solver tuning and telemetry — so
// a flag means the same thing, with the same name and the same
// validation, in every tool.
//
// Each group is a struct with a Register method binding its flags onto a
// flag.FlagSet. Telemetry additionally owns the whole lifecycle of the
// observability stack: Start builds the tracer/ledger/profile pipeline
// exactly once, and the returned Session carries the handles
// plus an idempotent Finish.
package cliflags

import (
	"flag"
	"fmt"
	"os"

	"obfuslock/internal/obs"
)

// Solver groups the SAT-tuning flags common to every solver-backed tool:
// -simp and -dip-batch.
type Solver struct {
	// Simp is the -simp value (CNF pre-/inprocessing of the SAT/AppSAT
	// DIP loop on).
	Simp bool
	// DIPBatch is the -dip-batch value.
	DIPBatch int
}

// Register binds the solver flags.
func (s *Solver) Register(fs *flag.FlagSet) {
	fs.BoolVar(&s.Simp, "simp", true,
		"SatELite-style CNF pre-/inprocessing of the SAT/AppSAT DIP loop")
	fs.IntVar(&s.DIPBatch, "dip-batch", 0,
		"DIPs enumerated per solver round and answered in one bit-parallel oracle pass (0: default width, 1: classic serial loop)")
}

// Telemetry groups the observability flags: -trace, -pprof and -ledger.
type Telemetry struct {
	// TracePath is the -trace JSONL output file.
	TracePath string
	// PprofPrefix is the -pprof profile prefix.
	PprofPrefix string
	// LedgerPath is the -ledger run-record output file.
	LedgerPath string
}

// Register binds the telemetry flags.
func (t *Telemetry) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.TracePath, "trace", "",
		"write the span/event stream as JSON Lines to this file")
	fs.StringVar(&t.PprofPrefix, "pprof", "",
		"write <prefix>.cpu.pprof, <prefix>.heap.pprof and <prefix>.allocs.pprof profiles")
	fs.StringVar(&t.LedgerPath, "ledger", "",
		"write a ledger.json run record (flags, build, per-span totals, peak RSS) to this file")
}

// Session is one tool invocation's observability stack, built by
// Telemetry.Start: the tracer, the run ledger, and the cleanup chain.
type Session struct {
	// Tracer is the configured tracer (nil when all flags are off: the
	// zero-cost path; a nil *obs.Tracer is valid everywhere).
	Tracer *obs.Tracer
	// Ledger is the run record (nil without -ledger).
	Ledger *obs.Ledger

	rollup     *obs.Rollup // the ledger's span totals (nil without -ledger)
	ledgerPath string
	closers    []func()
	ledgerDone bool
}

// Start builds the observability stack from the flags: trace file,
// ledger span rollup, pprof profiles. It returns an error instead of
// exiting so the caller owns the usage message.
func (t *Telemetry) Start(tool string) (*Session, error) {
	s := &Session{ledgerPath: t.LedgerPath}
	var sinks []obs.Sink
	if t.LedgerPath != "" {
		s.Ledger = obs.NewLedger(tool)
		s.rollup = obs.NewRollup()
		sinks = append(sinks, s.rollup)
	}
	if t.TracePath != "" {
		f, err := os.Create(t.TracePath)
		if err != nil {
			s.Finish()
			return nil, err
		}
		sinks = append(sinks, obs.NewJSONL(f))
		s.closers = append(s.closers, func() { f.Close() })
	}
	if t.PprofPrefix != "" && len(sinks) == 0 {
		// -pprof alone still needs an enabled tracer: its spans label the
		// profiles.
		sinks = append(sinks, obs.Discard)
	}
	s.Tracer = obs.New(obs.Multi(sinks...))
	s.Tracer.EnablePprofLabels()
	if t.PprofPrefix != "" {
		stop, err := obs.StartProfiles(t.PprofPrefix)
		if err != nil {
			s.Finish()
			return nil, err
		}
		s.closers = append(s.closers, func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", tool, err)
			}
		})
	}
	return s, nil
}

// Finish runs the cleanup chain exactly once. Safe to both defer and
// call explicitly before os.Exit.
func (s *Session) Finish() {
	for _, c := range s.closers {
		c()
	}
	s.closers = nil
}

// WriteLedger finalizes and writes the run record (no-op without
// -ledger; idempotent, so it can run both deferred and on explicit
// non-zero exit paths).
func (s *Session) WriteLedger() error {
	if s.Ledger == nil || s.ledgerDone {
		return nil
	}
	s.ledgerDone = true
	s.Ledger.Finish(s.rollup)
	return s.Ledger.WriteFile(s.ledgerPath)
}
