// Package obfuslock is a pure-Go implementation of ObfusLock (Li, Zhao,
// He, Zhou — DATE 2023), a logic-locking framework for circuit IP
// protection that simultaneously achieves locking security (exponential
// SAT-attack resistance), obfuscation safety (no surviving critical
// nodes), and locking efficiency (small keys, seconds of runtime, low PPA
// overhead).
//
// The package is a facade over the internal packages:
//
//   - circuits are And-Inverter Graphs (Circuit, ReadBench/WriteBench);
//   - Lock encrypts a circuit, returning the locked netlist, the secret
//     key and a construction report;
//   - the attack suite (SAT attack, AppSAT, sensitization, SPS, removal,
//     bypass, Valkyrie-style, SPI) evaluates locked designs;
//   - PPA estimates area/power/delay overhead on a NanGate-45nm-flavoured
//     cell library;
//   - Benchmarks reproduces the paper's evaluation circuits.
//
// A minimal round trip:
//
//	c := obfuslock.Benchmarks()[2].Build() // c6288 multiplier
//	res, err := obfuslock.Lock(c, obfuslock.DefaultOptions())
//	if err != nil { ... }
//	err = res.Locked.Verify(c) // correct key restores the circuit
package obfuslock

import (
	"context"
	"io"
	"time"

	"obfuslock/internal/aig"
	"obfuslock/internal/attacks"
	"obfuslock/internal/bench"
	"obfuslock/internal/cec"
	"obfuslock/internal/core"
	"obfuslock/internal/exec"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
	"obfuslock/internal/obs"
	"obfuslock/internal/simp"
	"obfuslock/internal/skew"
	"obfuslock/internal/techmap"
)

// Circuit is an (extended) And-Inverter Graph: AND/XOR/MAJ nodes over
// primary inputs, with complemented edges.
type Circuit = aig.AIG

// Lit is a literal (edge) of a Circuit: a node with an optional inverter.
type Lit = aig.Lit

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit { return aig.New() }

// ReadBench parses an ISCAS .bench netlist.
func ReadBench(r io.Reader) (*Circuit, error) { return bench.Read(r) }

// WriteBench writes the circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// Options configures Lock. See core.Options for field documentation.
type Options = core.Options

// DefaultOptions targets 20 bits of skewness with randomized obfuscation.
func DefaultOptions() Options { return core.DefaultOptions() }

// Locked is a key-protected circuit: the encrypted netlist, the key
// convention (original inputs first, key inputs last) and the secret key.
type Locked = locking.Locked

// Report summarizes a completed lock.
type Report = core.Report

// Result is a locked circuit plus its report.
type Result = core.Result

// Lock encrypts the circuit with ObfusLock.
func Lock(c *Circuit, opt Options) (*Result, error) {
	return core.Lock(context.Background(), c, opt)
}

// LockContext is Lock under a cancellation context: cancelling ctx aborts
// the construction (including its SAT solves) promptly.
func LockContext(ctx context.Context, c *Circuit, opt Options) (*Result, error) {
	return core.Lock(ctx, c, opt)
}

// Oracle is the attacker's working chip: query access to the original
// function.
type Oracle = locking.Oracle

// NewOracle wraps an original circuit as an oracle.
func NewOracle(c *Circuit) *Oracle { return locking.NewOracle(c) }

// Equivalent proves or refutes functional equivalence of two circuits.
func Equivalent(a, b *Circuit) (bool, error) {
	r, err := cec.Check(context.Background(), a, b, cec.DefaultOptions())
	if err != nil {
		return false, err
	}
	return r.Equivalent, nil
}

// CECOptions configures an equivalence check (simulation pre-filter, SAT
// budget, SAT sweeping, tracing). See internal/cec.Options.
type CECOptions = cec.Options

// CECResult reports an equivalence check.
type CECResult = cec.Result

// DefaultCECOptions returns the plain (monolithic-miter) configuration.
func DefaultCECOptions() CECOptions { return cec.DefaultOptions() }

// SweepCECOptions returns a configuration with SAT sweeping enabled: the
// combined graph is fraiged (internal/fraig) so the shared logic of the
// two sides collapses before the final, much smaller, miter solve.
func SweepCECOptions() CECOptions { return cec.SweepOptions() }

// CheckEquivalent proves or refutes functional equivalence under explicit
// options and a cancellation context.
func CheckEquivalent(ctx context.Context, a, b *Circuit, opt CECOptions) (CECResult, error) {
	return cec.Check(ctx, a, b, opt)
}

// AttackOptions bounds the oracle-guided attacks.
type AttackOptions = attacks.IOOptions

// DefaultAttackOptions returns an unbounded exact attack configuration.
func DefaultAttackOptions() AttackOptions { return attacks.DefaultIOOptions() }

// AttackResult reports an oracle-guided attack outcome.
type AttackResult = attacks.IOResult

// SimpOptions controls SatELite-style CNF preprocessing and inprocessing
// inside every SAT-backed step (lock construction, equivalence checking,
// attacks). The zero value enables it; see internal/simp for the knobs
// and DESIGN.md "CNF preprocessing & inprocessing" for the soundness
// rules. Options.Simp, CECOptions.Simp and AttackOptions.Simp all take
// one.
type SimpOptions = simp.Options

// DefaultSimp returns the enabled-by-default preprocessing configuration.
func DefaultSimp() SimpOptions { return simp.Default() }

// SimpOff disables CNF preprocessing entirely.
func SimpOff() SimpOptions { return simp.Off() }

// Budget bounds SAT effort: a wall-clock timeout plus a conflict cap
// (0 = unlimited). See internal/exec for the full semantics.
type Budget = exec.Budget

// WithConflicts returns a Budget capped at n solver conflicts.
func WithConflicts(n int64) Budget { return exec.WithConflicts(n) }

// DeriveSeed derives a statistically independent child seed from a master
// seed and an index (splitmix64); the experiment sweeps use it to give
// every cell its own stream regardless of worker count.
func DeriveSeed(master int64, index int) int64 { return exec.DeriveSeed(master, index) }

// PPAReport estimates area, power and delay of a mapped netlist.
type PPAReport = techmap.Report

// PPAOverhead is the locked-versus-original percentage overhead.
type PPAOverhead = techmap.Overhead

// AnalyzePPA maps the circuit onto the cell library and estimates PPA
// using words*64 random patterns for switching activity.
func AnalyzePPA(c *Circuit, words int, seed int64) PPAReport {
	return techmap.Analyze(c, words, seed)
}

// ComparePPA computes locked-vs-original overhead percentages.
func ComparePPA(orig, locked PPAReport) PPAOverhead { return techmap.Compare(orig, locked) }

// Benchmark is one evaluation circuit of the paper's Table I.
type Benchmark = netlistgen.Benchmark

// Benchmarks returns the ten Table I benchmark circuits.
func Benchmarks() []Benchmark { return netlistgen.Catalog() }

// SmallBenchmarks returns reduced-size counterparts used for quick runs.
func SmallBenchmarks() []Benchmark { return netlistgen.SmallSuite() }

// SkewnessBits estimates the skewness of an output literal in bits using
// Boolean multi-level splitting (accurate for exponentially rare events).
func SkewnessBits(c *Circuit, output int, seed int64) float64 {
	opt := skew.DefaultSplittingOptions()
	opt.Seed = seed
	return skew.SplittingBits(c, c.Output(output), opt)
}

// Baseline locking schemes for comparison (the trilemma corners) live in
// the scheme registry: Schemes() lists them, LockWith applies one by name
// with a SchemeOptions. ObfusLock itself is Lock/LockContext with its own
// Options.

// Observability. Options.Trace and AttackOptions.Trace accept a *Tracer;
// a nil tracer is fully disabled and costs nothing. See internal/obs and
// DESIGN.md "Observability" for the span taxonomy and JSONL schema.

// Tracer delivers hierarchical spans and events to a TraceSink.
type Tracer = obs.Tracer

// TraceSink receives the span/event stream.
type TraceSink = obs.Sink

// NewTracer returns a tracer delivering to sink (nil sink: nil tracer).
func NewTracer(sink TraceSink) *Tracer { return obs.New(sink) }

// NewJSONLSink returns a sink writing the stream as JSON Lines to w.
func NewJSONLSink(w io.Writer) TraceSink { return obs.NewJSONL(w) }

// TraceCollector records the stream in memory; it implements TraceSink.
type TraceCollector = obs.Collector

// NewTraceCollector returns an in-memory sink for tests and inspection.
func NewTraceCollector() *TraceCollector { return obs.NewCollector() }

// MultiSink fans the stream out to several sinks (nils are skipped).
func MultiSink(sinks ...TraceSink) TraceSink { return obs.Multi(sinks...) }

// DiscardSink drops the stream; use it when only pprof labels are wanted.
var DiscardSink TraceSink = obs.Discard

// TraceField is a typed key/value attached to spans and events.
type TraceField = obs.Field

// TraceInt builds an integer trace field.
func TraceInt(key string, v int64) TraceField { return obs.Int(key, v) }

// TraceFloat builds a float trace field.
func TraceFloat(key string, v float64) TraceField { return obs.Float(key, v) }

// TraceStr builds a string trace field.
func TraceStr(key, v string) TraceField { return obs.Str(key, v) }

// TraceBool builds a boolean trace field.
func TraceBool(key string, v bool) TraceField { return obs.Bool(key, v) }

// TraceDur builds a duration trace field (serialized as microseconds).
func TraceDur(key string, d time.Duration) TraceField { return obs.Dur(key, d) }

// Run records. A run ledger captures a whole invocation. See DESIGN.md
// "Observability" for the full model.

// RunLedger accumulates one CLI invocation's provenance — args, go
// version, build revision, wall time and peak RSS — and serializes it as
// ledger.json. The CLIs also embed per-span totals (see cmd/attack and
// cmd/obfuslock -ledger).
type RunLedger = obs.Ledger

// LedgerSchema identifies the ledger.json layout.
const LedgerSchema = obs.LedgerSchema

// NewRunLedger starts a ledger for the named tool, stamping the start
// time, command-line arguments and build info.
func NewRunLedger(tool string) *RunLedger { return obs.NewLedger(tool) }

// StartProfiles begins a CPU profile at <prefix>.cpu.pprof; the returned
// stop function finishes it and writes <prefix>.heap.pprof and
// <prefix>.allocs.pprof snapshots taken after a final GC.
func StartProfiles(prefix string) (func() error, error) { return obs.StartProfiles(prefix) }
