// Package cliflags factors the flag plumbing shared by the obfuslock and
// attack CLIs into two reusable groups — solver tuning and telemetry — so
// a flag means the same thing, with the same name and the same
// validation, in every tool.
//
// Each group is a struct with a Register method binding its flags onto a
// flag.FlagSet. Telemetry additionally owns the whole lifecycle of the
// observability stack: Start builds the tracer/flight-recorder/profile
// pipeline exactly once, and the returned Session carries the handles
// plus an idempotent Finish.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"obfuslock/internal/obs"
	"obfuslock/internal/simp"
)

// Solver groups the SAT-tuning flags common to every solver-backed tool:
// -simp and -dip-batch.
type Solver struct {
	// Simp is the -simp value (CNF pre-/inprocessing on).
	Simp bool
	// DIPBatch is the -dip-batch value.
	DIPBatch int
}

// Register binds the solver flags.
func (s *Solver) Register(fs *flag.FlagSet) {
	fs.BoolVar(&s.Simp, "simp", true,
		"SatELite-style CNF preprocessing/inprocessing in every SAT solver")
	fs.IntVar(&s.DIPBatch, "dip-batch", 0,
		"DIPs enumerated per solver round and answered in one bit-parallel oracle pass (0: default width, 1: classic serial loop)")
}

// SimpOptions resolves -simp into the preprocessing configuration.
func (s *Solver) SimpOptions() simp.Options {
	if !s.Simp {
		return simp.Off()
	}
	return simp.Default()
}

// Telemetry groups the observability flags: -trace, -progress, -pprof,
// -debug-addr and -ledger.
type Telemetry struct {
	// TracePath is the -trace JSONL output file.
	TracePath string
	// Progress is the -progress live status line.
	Progress bool
	// PprofPrefix is the -pprof profile prefix.
	PprofPrefix string
	// DebugAddr is the -debug-addr live introspection address.
	DebugAddr string
	// LedgerPath is the -ledger run-record output file.
	LedgerPath string
}

// Register binds the telemetry flags.
func (t *Telemetry) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.TracePath, "trace", "",
		"write the span/event stream as JSON Lines to this file")
	fs.BoolVar(&t.Progress, "progress", false,
		"live one-line progress on stderr")
	fs.StringVar(&t.PprofPrefix, "pprof", "",
		"write <prefix>.cpu.pprof, <prefix>.heap.pprof and <prefix>.allocs.pprof profiles")
	fs.StringVar(&t.DebugAddr, "debug-addr", "",
		"serve /metrics, /flight and /debug/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&t.LedgerPath, "ledger", "",
		"write a ledger.json run record (flags, build, metrics, peak RSS) to this file")
}

// Enabled reports whether any telemetry flag is on (which arms the
// flight recorder).
func (t *Telemetry) Enabled() bool {
	return t.TracePath != "" || t.Progress || t.PprofPrefix != "" ||
		t.DebugAddr != "" || t.LedgerPath != ""
}

// Session is one tool invocation's observability stack, built by
// Telemetry.Start: the tracer and its registry, the flight recorder, the
// run ledger, and the cleanup chain.
type Session struct {
	// Tool is the name used in diagnostics and the ledger.
	Tool string
	// Tracer is the configured tracer (nil when all flags are off: the
	// zero-cost path; a nil *obs.Tracer is valid everywhere).
	Tracer *obs.Tracer
	// Registry is the tracer's metric namespace, always non-nil.
	Registry *obs.Registry
	// Flight is the recent-span ring, armed by any telemetry flag.
	Flight *obs.Flight
	// Ledger is the run record (nil without -ledger).
	Ledger *obs.Ledger
	// DebugAddr is the bound -debug-addr listener address ("" when off).
	DebugAddr string

	ledgerPath string
	closers    []func()
	finished   bool
	ledgerDone bool
}

// Start builds the observability stack from the flags: trace file,
// progress line, flight recorder, span-duration histograms, pprof
// profiles, debug endpoint, ledger. It returns an error instead of
// exiting so the caller owns the usage message.
func (t *Telemetry) Start(tool string) (*Session, error) {
	s := &Session{Tool: tool, Registry: obs.NewRegistry(), ledgerPath: t.LedgerPath}
	if t.LedgerPath != "" {
		s.Ledger = obs.NewLedger(tool)
	}
	var sinks []obs.Sink
	if t.TracePath != "" {
		f, err := os.Create(t.TracePath)
		if err != nil {
			s.close()
			return nil, err
		}
		sinks = append(sinks, obs.NewJSONL(f))
		s.closers = append(s.closers, func() { f.Close() })
	}
	if t.Progress {
		p := obs.NewProgress(os.Stderr)
		sinks = append(sinks, p)
		s.closers = append(s.closers, p.Done)
	}
	if t.Enabled() {
		s.Flight = obs.NewFlight(obs.DefaultFlightDepth)
		sinks = append(sinks, s.Flight)
	}
	if len(sinks) > 0 {
		// Every completed span also lands in a span.<name>_us histogram,
		// so /metrics and the ledger carry per-phase latency distributions.
		sinks = append(sinks, obs.NewSpanDurations(s.Registry))
	}
	sink := obs.Multi(sinks...)
	if sink == nil && t.PprofPrefix != "" {
		// pprof labels need an enabled tracer even with no stream.
		sink = obs.Discard
	}
	s.Tracer = obs.NewWithRegistry(sink, s.Registry)
	s.Tracer.EnablePprofLabels()
	if t.PprofPrefix != "" {
		stop, err := obs.StartProfiles(t.PprofPrefix)
		if err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", tool, err)
			}
		})
	}
	if t.DebugAddr != "" {
		addr, err := obs.ListenDebug(t.DebugAddr, s.Tracer, s.Flight)
		if err != nil {
			s.close()
			return nil, err
		}
		s.DebugAddr = addr
		fmt.Fprintf(os.Stderr, "%s: debug endpoint on http://%s (/metrics, /flight, /debug/pprof)\n", tool, addr)
	}
	return s, nil
}

// Finish flushes the tracer and runs the cleanup chain exactly once.
// Safe to both defer and call explicitly before os.Exit.
func (s *Session) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	s.Tracer.Close()
	s.close()
}

func (s *Session) close() {
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
	s.Ledger.Finish(s.Tracer)
	return s.Ledger.WriteFile(s.ledgerPath)
}

// DumpFlight writes the flight recorder's recent-span ring to stderr
// (no-op when the recorder is off or empty).
func (s *Session) DumpFlight(reason string) {
	if s.Flight == nil || s.Flight.Len() == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %s — flight recorder dump:\n", s.Tool, reason)
	s.Flight.WriteTo(os.Stderr)
}

// ArmFlightDump dumps the flight recorder on SIGQUIT (the run keeps
// going, like a thread dump).
func (s *Session) ArmFlightDump() {
	if s.Flight == nil {
		return
	}
	qc := make(chan os.Signal, 1)
	signal.Notify(qc, syscall.SIGQUIT)
	go func() {
		for range qc {
			s.DumpFlight("SIGQUIT")
		}
	}()
}

// PanicDump preserves the flight recorder's evidence when the run dies:
// deferred in main, it dumps the ring and re-panics.
func (s *Session) PanicDump() {
	if r := recover(); r != nil {
		s.DumpFlight("panic")
		panic(r)
	}
}
