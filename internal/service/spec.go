package service

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Wire schema identifiers. SchemaVersion names the job-submission layout
// and ResultSchema the result layout; both are versioned independently
// of the package so clients can pin what they parse. Bumping either is
// an API change: the golden round-trip tests and the CI schema-diff step
// both fail until the goldens and docs are regenerated to match.
const (
	// SchemaVersion is the versioned job-spec schema accepted by
	// POST /v1/jobs (and by the in-process facade runner).
	SchemaVersion = "obfuslock-job/v1"
	// ResultSchema is the versioned result layout embedded in a finished
	// job's envelope.
	ResultSchema = "obfuslock-result/v1"
)

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
// milliseconds and a SAT conflict cap. It is the same vocabulary as the in-process exec.Budget — the
// facade converts between the two losslessly — with explicit integer
// units so the JSON never depends on Go duration formatting.
type Budget struct {
	// TimeoutMS bounds the job's wall clock in milliseconds (0: none).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxConflicts caps SAT conflicts per solve (0: unlimited).
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
}

// SchemeOptions parameterizes the locking schemes. It is the single
// options vocabulary for both paths — the facade's LockWith takes it
// directly and JobSpec carries it over the wire — so a job submitted
// over HTTP and an in-process call are the same object. Each scheme
// reads the fields it needs and ignores the rest; zero values fall back
// to per-scheme defaults.
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
// wire). Wall clock, conflict caps and SAT parallelism live in
// the job's Budget.
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

// JobSpec is one versioned job submission: the body of POST /v1/jobs and
// the argument of the facade's RunJob. Circuits travel as .bench text so
// the wire format needs no binary framing and stays diffable.
type JobSpec struct {
	// Schema must equal SchemaVersion.
	Schema string `json:"schema"`
	// Kind selects the pipeline: lock, attack, cec, count or sample.
	Kind string `json:"kind"`
	// Tenant attributes the job for quota accounting (empty: "default").
	Tenant string `json:"tenant,omitempty"`
	// Label is an optional client tag echoed in the job envelope.
	Label string `json:"label,omitempty"`
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
	// Budget bounds the job (nil: unlimited, subject to tenant caps).
	Budget *Budget `json:"budget,omitempty"`
	// Output is the output index for count/sample jobs.
	Output int `json:"output,omitempty"`
	// Sweep selects SAT sweeping for cec jobs (nil: enabled).
	Sweep *bool `json:"sweep,omitempty"`
	// Seed drives the randomized parts of cec/count/sample jobs.
	Seed int64 `json:"seed,omitempty"`
}

// JobResult is the versioned outcome of a finished job. It carries no
// wall-clock fields on purpose: two runs of the same spec — serial or
// under heavy concurrency — must produce byte-identical encodings,
// which is what the loadgen soak asserts.
// Timing lives in the job envelope, not the result.
type JobResult struct {
	// Schema equals ResultSchema.
	Schema string `json:"schema"`
	// Kind echoes the spec's kind.
	Kind string `json:"kind"`
	// Scheme echoes the lock scheme (lock jobs).
	Scheme string `json:"scheme,omitempty"`
	// Attack echoes the attack name (attack jobs).
	Attack string `json:"attack,omitempty"`
	// Locked is the locked netlist as .bench text (lock jobs).
	Locked string `json:"locked,omitempty"`
	// Key is the secret key (lock jobs) or the recovered key (attack
	// jobs) as a 0/1 string, k0 first; empty when no key was recovered.
	Key string `json:"key,omitempty"`
	// KeyBits is the key length (lock and attack jobs).
	KeyBits int `json:"key_bits,omitempty"`
	// Exact is true when an attack proved its key correct (termination).
	Exact bool `json:"exact,omitempty"`
	// TimedOut is true when an attack hit its budget before terminating.
	TimedOut bool `json:"timed_out,omitempty"`
	// Iterations counts DIPs processed (attack jobs).
	Iterations int `json:"iterations,omitempty"`
	// Queries counts oracle queries (attack jobs).
	Queries int `json:"queries,omitempty"`
	// Equivalent reports the CEC verdict (cec jobs, when decided).
	Equivalent *bool `json:"equivalent,omitempty"`
	// Decided is false when a budget expired before a cec/count verdict.
	Decided *bool `json:"decided,omitempty"`
	// Log2Count estimates log2 of the model count (count jobs; omitted
	// when the count is zero — see CountZero).
	Log2Count *float64 `json:"log2_count,omitempty"`
	// CountZero is true when the model count is exactly zero (count
	// jobs; JSON cannot carry the -Inf that log2 would be).
	CountZero bool `json:"count_zero,omitempty"`
	// ExactCount is true when the count was fully enumerated.
	ExactCount bool `json:"exact_count,omitempty"`
	// SkewBits is the estimated output skewness in bits (sample jobs).
	SkewBits *float64 `json:"skew_bits,omitempty"`
}

// Error is the structured error body every non-2xx response carries:
//
//	{"error": {"code": "quota_exhausted", "message": "..."}}
//
// Code is machine-matchable and stable; Message is human-readable.
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

// Stable error codes. The HTTP status each maps to is fixed by
// HTTPStatus, so clients can branch on either.
const (
	// CodeBadRequest covers malformed JSON, unknown fields and
	// per-kind validation failures (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeBadSchema reports an unsupported schema version (HTTP 400).
	CodeBadSchema = "bad_schema"
	// CodeUnknownJob reports a job id the server does not know (404).
	CodeUnknownJob = "unknown_job"
	// CodeQuotaExhausted reports a tenant over its concurrency quota
	// (HTTP 429).
	CodeQuotaExhausted = "quota_exhausted"
	// CodeQueueFull reports scheduler backpressure: the bounded backlog
	// is full (HTTP 429).
	CodeQueueFull = "queue_full"
	// CodeDraining reports that the server is shutting down and no
	// longer admits jobs (HTTP 503).
	CodeDraining = "draining"
	// CodeCancelled marks a job cancelled by the client (job envelope
	// only).
	CodeCancelled = "cancelled"
	// CodeFailed marks a job whose execution errored (job envelope only).
	CodeFailed = "failed"
)

// HTTPStatus maps an error code to its HTTP status. Unknown codes map
// to 500.
func HTTPStatus(code string) int {
	switch code {
	case CodeBadRequest, CodeBadSchema:
		return 400
	case CodeUnknownJob:
		return 404
	case CodeQuotaExhausted, CodeQueueFull:
		return 429
	case CodeDraining:
		return 503
	default:
		return 500
	}
}

// Errorf builds a structured error.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// maxSpecBytes bounds one job submission (netlists included). Large
// enough for every benchmark in the suite, small enough that a stray
// client cannot balloon the daemon.
const maxSpecBytes = 64 << 20

// DecodeSpec parses one JobSpec from r under the strict wire contract:
// unknown fields are rejected (schema evolution is explicit — new fields
// come with a version bump or are added here first), trailing garbage is
// rejected, and the spec is validated. The returned error is the
// structured 400/bad_schema body.
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

// Validate checks the schema version, the kind, and the per-kind
// required fields. It does not parse the embedded netlists or check
// scheme/attack names against a registry — the server layers that on
// with the registries it was configured with.
func (s *JobSpec) Validate() *Error {
	if s.Schema != SchemaVersion {
		return Errorf(CodeBadSchema, "unsupported schema %q (this server speaks %s)", s.Schema, SchemaVersion)
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
	if b := s.Budget; b != nil {
		if b.TimeoutMS < 0 {
			return Errorf(CodeBadRequest, "budget.timeout_ms must be non-negative, got %d", b.TimeoutMS)
		}
		if b.MaxConflicts < 0 {
			return Errorf(CodeBadRequest, "budget.max_conflicts must be non-negative, got %d", b.MaxConflicts)
		}
	}
	return nil
}

// TenantOrDefault resolves the quota-accounting tenant.
func (s *JobSpec) TenantOrDefault() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}
