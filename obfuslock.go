// Package obfuslock is a pure-Go implementation of ObfusLock (Li, Zhao,
// He, Zhou — DATE 2023), a logic-locking framework for circuit IP
// protection that simultaneously achieves locking security (exponential
// SAT-attack resistance), obfuscation safety (no surviving critical
// nodes), and locking efficiency (small keys, seconds of runtime, low PPA
// overhead).
//
// The package is a facade over the internal packages, holding what the
// commands and examples call:
//
//   - circuits are And-Inverter Graphs (Circuit, ReadBench/WriteBench);
//   - Lock encrypts a circuit, returning the locked netlist, the secret
//     key and a construction report; Locked.VerifyWith proves the key
//     under DefaultCECOptions or SweepCECOptions;
//   - LockWith applies a baseline scheme (RLL, SARLock, Anti-SAT,
//     TTLock, SFLL-HD) by name, and AttackNamed returns the SAT attack
//     or AppSAT to run against a locked design;
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

	"obfuslock/internal/aig"
	"obfuslock/internal/attacks"
	"obfuslock/internal/bench"
	"obfuslock/internal/cec"
	"obfuslock/internal/core"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
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

// CECOptions configures an equivalence check (simulation pre-filter, SAT
// budget, SAT sweeping, tracing). See internal/cec.Options.
type CECOptions = cec.Options

// DefaultCECOptions returns the plain (monolithic-miter) configuration.
func DefaultCECOptions() CECOptions { return cec.DefaultOptions() }

// SweepCECOptions returns a configuration with SAT sweeping enabled: the
// combined graph is fraiged (internal/fraig) so the shared logic of the
// two sides collapses before the final, much smaller, miter solve.
func SweepCECOptions() CECOptions { return cec.SweepOptions() }

// AttackOptions bounds the oracle-guided attacks.
type AttackOptions = attacks.IOOptions

// DefaultAttackOptions returns an unbounded exact attack configuration.
func DefaultAttackOptions() AttackOptions { return attacks.DefaultIOOptions() }

// AttackResult reports an oracle-guided attack outcome.
type AttackResult = attacks.IOResult

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
