package service

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// SchemaVersion is the versioned job-spec schema. It is versioned
// independently of the package so clients can pin what they parse.
// Bumping it is an API change: the golden round-trip tests fail until the
// goldens and docs are regenerated to match.
const SchemaVersion = "obfuslock-job/v1"

// Job kinds accepted by JobSpec.Kind.
const (
	// KindLock applies a locking scheme to Circuit.
	KindLock = "lock"
	// KindAttack runs a registered oracle-guided attack against the
	// locked netlist in Circuit with Oracle as the working chip.
	KindAttack = "attack"
	// KindCEC decides functional equivalence of Circuit and Oracle.
	KindCEC = "cec"
	// KindCount approximately counts models of one output of Circuit.
	KindCount = "count"
	// KindSample estimates the skewness of one output of Circuit in bits.
	KindSample = "sample"
)

// Kinds lists the accepted job kinds in documentation order.
func Kinds() []string {
	return []string{KindLock, KindAttack, KindCEC, KindCount, KindSample}
}

// Budget is the wire form of an execution budget: wall clock in
// milliseconds and a SAT conflict cap. It is the same vocabulary as the
// in-process exec.Budget (see Exec), with explicit integer units so the
// JSON never depends on Go duration formatting.
type Budget struct {
	// TimeoutMS bounds the job's wall clock in milliseconds (0: none).
	// Every kind that accepts a budget honours it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxConflicts caps SAT conflicts per solve (0: unlimited). Only cec
	// and count jobs apply a conflict cap; Validate rejects it elsewhere.
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
}

// SchemeOptions is the wire form of a lock job's scheme parameters. Each
// scheme reads the fields it needs and ignores the rest; zero values fall
// back to per-scheme defaults.
type SchemeOptions struct {
	// KeyBits is the number of inserted key gates (RLL).
	KeyBits int `json:"key_bits,omitempty"`
	// ProtWidth is the protected input width (SARLock, Anti-SAT, TTLock,
	// SFLL-HD): the flip logic watches this many inputs.
	ProtWidth int `json:"prot_width,omitempty"`
	// HammingDistance is SFLL-HD's protected distance h.
	HammingDistance int `json:"hamming_distance,omitempty"`
	// SkewBits is the target skewness for the "obfuslock" scheme
	// (0: the facade default of 20 bits).
	SkewBits float64 `json:"skew_bits,omitempty"`
	// Seed drives each scheme's randomized choices.
	Seed int64 `json:"seed,omitempty"`
}

// AttackOptions is the serializable subset of the oracle-guided attack
// knobs: everything that shapes the attack transcript and nothing that
// holds a runtime handle (tracers are per-process and never ride the
// wire). The wall clock lives in the job's Budget.
type AttackOptions struct {
	// MaxIterations caps DIP iterations (0: unlimited).
	MaxIterations int `json:"max_iterations,omitempty"`
	// Seed drives randomized reinforcement (AppSAT).
	Seed int64 `json:"seed,omitempty"`
	// DIPBatch is the bit-parallel DIP batching width (0: default;
	// 1: classic serial loop).
	DIPBatch int `json:"dip_batch,omitempty"`
	// ReinforceEvery iterations AppSAT adds random-query constraints.
	ReinforceEvery int `json:"reinforce_every,omitempty"`
	// RandomQueries per AppSAT reinforcement round.
	RandomQueries int `json:"random_queries,omitempty"`
}

// JobSpec is one versioned job submission. Circuits travel as .bench text
// so the JSON form needs no binary framing and stays diffable.
type JobSpec struct {
	// Schema must equal SchemaVersion.
	Schema string `json:"schema"`
	// Kind selects the pipeline: lock, attack, cec, count or sample.
	Kind string `json:"kind"`
	// Circuit is the primary .bench netlist: the circuit to lock, the
	// locked design to attack (key inputs named k0, k1, ...), the left
	// side of a CEC pair, or the circuit to count/sample over.
	Circuit string `json:"circuit,omitempty"`
	// Oracle is the secondary .bench netlist: the attacker's working
	// chip (attack) or the right side of a CEC pair.
	Oracle string `json:"oracle,omitempty"`
	// Scheme names the locking scheme for lock jobs ("obfuslock" or any
	// registered baseline).
	Scheme string `json:"scheme,omitempty"`
	// SchemeOptions parameterizes the scheme (nil: defaults).
	SchemeOptions *SchemeOptions `json:"scheme_options,omitempty"`
	// Attack names the registered attack for attack jobs.
	Attack string `json:"attack,omitempty"`
	// AttackOptions parameterizes the attack (nil: defaults).
	AttackOptions *AttackOptions `json:"attack_options,omitempty"`
	// Budget bounds the job (nil: unlimited). Sample jobs take none.
	Budget *Budget `json:"budget,omitempty"`
	// Output is the output index for count/sample jobs.
	Output int `json:"output,omitempty"`
	// Sweep selects SAT sweeping for cec jobs (nil: enabled).
	Sweep *bool `json:"sweep,omitempty"`
	// Seed drives the randomized parts of cec/count/sample jobs.
	Seed int64 `json:"seed,omitempty"`
}

// Error is the structured error of the job API. Code is machine-matchable
// and stable; Message is human-readable.
type Error struct {
	// Code identifies the failure class (see the Code* constants).
	Code string `json:"code"`
	// Message elaborates for humans.
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e == nil {
		return "<nil>"
	}
	return e.Code + ": " + e.Message
}

// Stable error codes.
const (
	// CodeBadRequest covers per-kind validation failures, unparsable
	// netlists and unknown scheme or attack names.
	CodeBadRequest = "bad_request"
	// CodeBadSchema reports an unsupported schema version.
	CodeBadSchema = "bad_schema"
	// CodeCancelled marks a job whose context was cancelled or whose
	// budget's wall clock ran out before it could produce a result.
	CodeCancelled = "cancelled"
	// CodeFailed marks a job whose execution errored.
	CodeFailed = "failed"
)

// Errorf builds a structured error.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Validate checks the schema version, the kind, the per-kind required
// fields, and that every budget field is one the kind applies. It does
// not parse the embedded netlists or check scheme/attack names against a
// registry.
func (s *JobSpec) Validate() *Error {
	if s.Schema != SchemaVersion {
		return Errorf(CodeBadSchema, "unsupported schema %q (want %s)", s.Schema, SchemaVersion)
	}
	switch s.Kind {
	case KindLock:
		if s.Circuit == "" {
			return Errorf(CodeBadRequest, "lock jobs require a circuit")
		}
		if s.Scheme == "" {
			return Errorf(CodeBadRequest, "lock jobs require a scheme")
		}
		if s.Attack != "" || s.AttackOptions != nil {
			return Errorf(CodeBadRequest, "lock jobs take no attack fields")
		}
	case KindAttack:
		if s.Circuit == "" || s.Oracle == "" {
			return Errorf(CodeBadRequest, "attack jobs require a locked circuit and an oracle")
		}
		if s.Attack == "" {
			return Errorf(CodeBadRequest, "attack jobs require an attack name")
		}
		if s.Scheme != "" || s.SchemeOptions != nil {
			return Errorf(CodeBadRequest, "attack jobs take no scheme fields")
		}
	case KindCEC:
		if s.Circuit == "" || s.Oracle == "" {
			return Errorf(CodeBadRequest, "cec jobs require two circuits (circuit, oracle)")
		}
	case KindCount, KindSample:
		if s.Circuit == "" {
			return Errorf(CodeBadRequest, "%s jobs require a circuit", s.Kind)
		}
		if s.Output < 0 {
			return Errorf(CodeBadRequest, "output index must be non-negative, got %d", s.Output)
		}
	default:
		return Errorf(CodeBadRequest, "unknown kind %q (have %s)", s.Kind, strings.Join(Kinds(), ", "))
	}
	b := s.Budget
	if b == nil {
		return nil
	}
	if b.TimeoutMS < 0 {
		return Errorf(CodeBadRequest, "budget.timeout_ms must be non-negative, got %d", b.TimeoutMS)
	}
	if b.MaxConflicts < 0 {
		return Errorf(CodeBadRequest, "budget.max_conflicts must be non-negative, got %d", b.MaxConflicts)
	}
	switch {
	case s.Kind == KindSample:
		return Errorf(CodeBadRequest, "sample jobs take no budget")
	case b.MaxConflicts != 0 && (s.Kind == KindLock || s.Kind == KindAttack):
		return Errorf(CodeBadRequest, "%s jobs take no budget.max_conflicts (only cec and count apply a conflict cap)", s.Kind)
	}
	return nil
}

// maxSpecBytes bounds one job document (netlists included): enough for
// every benchmark in the suite, small enough that a stray file cannot
// balloon the reader.
const maxSpecBytes = 64 << 20

// DecodeSpec parses one JSON job document from r under the strict wire
// contract: unknown fields are rejected (schema evolution is explicit —
// new fields come with a version bump or are added here first), trailing
// data is rejected, and the spec is validated.
func DecodeSpec(r io.Reader) (JobSpec, *Error) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, Errorf(CodeBadRequest, "invalid job spec: %v", err)
	}
	if dec.More() {
		return spec, Errorf(CodeBadRequest, "invalid job spec: trailing data after the JSON object")
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}
