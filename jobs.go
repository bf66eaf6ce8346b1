// The job API: one versioned spec type drives every pipeline in the
// package — locking (ObfusLock and the baselines), the oracle-guided
// attacks, equivalence checking, model counting and skewness sampling.
// RunJob executes a spec in-process under its budget and returns a
// result that carries no wall-clock fields. See internal/service for the
// wire types.
package obfuslock

import (
	"context"
	"io"
	"math"
	"strings"

	"obfuslock/internal/count"
	"obfuslock/internal/locking"
	"obfuslock/internal/service"
	"obfuslock/internal/skew"
)

// JobSpec is one versioned job submission ("obfuslock-job/v1"): the
// argument of RunJob. Circuits travel as .bench text.
type JobSpec = service.JobSpec

// JobResult is the versioned outcome ("obfuslock-result/v1"). It carries
// no wall-clock fields: equal specs produce byte-identical encodings
// whether run serially or concurrently.
type JobResult = service.JobResult

// JobError is the structured error of the job API; its Code is stable.
type JobError = service.Error

// JobBudget is the wire form of an execution Budget (integer
// milliseconds and a conflict cap).
type JobBudget = service.Budget

// JobAttackOptions is the serializable subset of AttackOptions: the
// fields that shape an attack transcript, none of the runtime handles.
type JobAttackOptions = service.AttackOptions

// JobSchemaVersion is the job-spec schema RunJob accepts.
const JobSchemaVersion = service.SchemaVersion

// JobResultSchema is the schema stamped on every JobResult.
const JobResultSchema = service.ResultSchema

// JobKinds lists the accepted JobSpec kinds.
func JobKinds() []string { return service.Kinds() }

// JobSchemes lists the scheme names accepted by lock jobs: "obfuslock"
// itself plus every registered baseline.
func JobSchemes() []string { return append([]string{"obfuslock"}, Schemes()...) }

// DecodeJobSpec reads one JSON job document strictly: unknown fields and
// trailing data are rejected and the spec is validated. The returned
// error, when non-nil, is always a *JobError.
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	spec, jerr := service.DecodeSpec(r)
	if jerr != nil {
		return spec, jerr
	}
	return spec, nil
}

// JobRuntime carries the per-process handles a job execution may use but
// that never ride the wire: a tracer for progress spans and the CNF
// preprocessing configuration. The zero value is valid (no tracing,
// default preprocessing).
type JobRuntime struct {
	// Trace receives the job's span/event/metric stream (nil: none).
	Trace *Tracer
	// Simp configures CNF preprocessing (zero value: enabled).
	Simp SimpOptions
}

// RunJob executes one job spec in-process and returns its versioned
// result. The spec's budget bounds the whole job: its wall clock bounds
// the context every kind runs under, and its conflict cap reaches the
// solvers of cec and count jobs (Validate rejects the fields a kind
// cannot apply). A lock job cut short by the context returns a
// cancelled error; cec and count jobs return an undecided result and
// attack jobs a timed-out one. The returned error, when non-nil, is
// always a *JobError.
func RunJob(ctx context.Context, spec JobSpec, rt JobRuntime) (JobResult, error) {
	res, jerr := runJob(ctx, spec, rt)
	if jerr != nil {
		return res, jerr
	}
	return res, nil
}

func runJob(ctx context.Context, spec JobSpec, rt JobRuntime) (JobResult, *JobError) {
	if ctx == nil {
		ctx = context.Background()
	}
	if jerr := spec.Validate(); jerr != nil {
		return JobResult{}, jerr
	}
	var budget JobBudget
	if spec.Budget != nil {
		budget = *spec.Budget
	}
	ctx, cancel := budget.Exec().Bind(ctx)
	defer cancel()
	res := JobResult{Schema: JobResultSchema, Kind: spec.Kind}
	switch spec.Kind {
	case service.KindLock:
		return runLockJob(ctx, spec, rt, res)
	case service.KindAttack:
		return runAttackJob(ctx, spec, rt, res)
	case service.KindCEC:
		return runCECJob(ctx, spec, rt, budget, res)
	case service.KindCount:
		return runCountJob(ctx, spec, rt, budget, res)
	case service.KindSample:
		return runSampleJob(ctx, spec, rt, res)
	default:
		return res, service.Errorf(service.CodeBadRequest, "unknown kind %q", spec.Kind)
	}
}

func runLockJob(ctx context.Context, spec JobSpec, rt JobRuntime, res JobResult) (JobResult, *JobError) {
	c, jerr := parseBench(spec.Circuit, "circuit")
	if jerr != nil {
		return res, jerr
	}
	var so SchemeOptions
	if spec.SchemeOptions != nil {
		so = *spec.SchemeOptions
	}
	var locked *Locked
	if spec.Scheme == "obfuslock" {
		opt := DefaultOptions()
		if so.SkewBits > 0 {
			opt.TargetSkewBits = so.SkewBits
		}
		opt.Seed = so.Seed
		opt.Trace = rt.Trace
		opt.Simp = rt.Simp
		r, err := LockContext(ctx, c, opt)
		if err != nil {
			return res, lockErr(ctx, err, service.CodeFailed)
		}
		locked = r.Locked
	} else {
		l, err := LockWith(ctx, spec.Scheme, c, so)
		if err != nil {
			return res, lockErr(ctx, err, service.CodeBadRequest)
		}
		locked = l
	}
	enc, jerr := benchText(locked.Enc)
	if jerr != nil {
		return res, jerr
	}
	res.Scheme = spec.Scheme
	res.Locked = enc
	res.Key = keyString(locked.Key)
	res.KeyBits = locked.KeyBits
	return res, nil
}

func runAttackJob(ctx context.Context, spec JobSpec, rt JobRuntime, res JobResult) (JobResult, *JobError) {
	enc, jerr := parseBench(spec.Circuit, "circuit")
	if jerr != nil {
		return res, jerr
	}
	orig, jerr := parseBench(spec.Oracle, "oracle")
	if jerr != nil {
		return res, jerr
	}
	locked, err := locking.FromNetlist(enc, "unknown")
	if err != nil {
		return res, service.Errorf(service.CodeBadRequest, "circuit is not a locked netlist: %v", err)
	}
	if locked.NumInputs != orig.NumInputs() {
		return res, service.Errorf(service.CodeBadRequest,
			"oracle has %d inputs, locked design expects %d", orig.NumInputs(), locked.NumInputs)
	}
	a, ok := AttackNamed(spec.Attack)
	if !ok {
		return res, service.Errorf(service.CodeBadRequest, "unknown attack %q", spec.Attack)
	}
	opt := DefaultAttackOptions()
	if ao := spec.AttackOptions; ao != nil {
		if ao.MaxIterations > 0 {
			opt.MaxIterations = ao.MaxIterations
		}
		opt.Seed = ao.Seed
		if ao.DIPBatch > 0 {
			opt.DIPBatch = ao.DIPBatch
		}
		if ao.ReinforceEvery > 0 {
			opt.ReinforceEvery = ao.ReinforceEvery
		}
		if ao.RandomQueries > 0 {
			opt.RandomQueries = ao.RandomQueries
		}
	}
	opt.Trace = rt.Trace
	opt.Simp = rt.Simp
	r := a.Run(ctx, locked, NewOracle(orig), opt)
	res.Attack = spec.Attack
	res.Key = keyString(r.Key)
	res.KeyBits = locked.KeyBits
	res.Exact = r.Exact
	res.TimedOut = r.TimedOut
	res.Iterations = r.Iterations
	res.Queries = r.Queries
	return res, nil
}

func runCECJob(ctx context.Context, spec JobSpec, rt JobRuntime, budget JobBudget, res JobResult) (JobResult, *JobError) {
	a, jerr := parseBench(spec.Circuit, "circuit")
	if jerr != nil {
		return res, jerr
	}
	b, jerr := parseBench(spec.Oracle, "oracle")
	if jerr != nil {
		return res, jerr
	}
	opt := SweepCECOptions()
	if spec.Sweep != nil && !*spec.Sweep {
		opt = DefaultCECOptions()
	}
	if spec.Seed != 0 {
		opt.Seed = spec.Seed
	}
	opt.Budget = budget.Exec()
	opt.Trace = rt.Trace
	opt.Simp = rt.Simp
	r, err := CheckEquivalent(ctx, a, b, opt)
	if err != nil {
		return res, service.Errorf(service.CodeBadRequest, "%v", err)
	}
	decided := r.Decided
	res.Decided = &decided
	if decided {
		eq := r.Equivalent
		res.Equivalent = &eq
	}
	return res, nil
}

func runCountJob(ctx context.Context, spec JobSpec, rt JobRuntime, budget JobBudget, res JobResult) (JobResult, *JobError) {
	c, jerr := parseBench(spec.Circuit, "circuit")
	if jerr != nil {
		return res, jerr
	}
	if jerr := checkOutput(c, spec.Output); jerr != nil {
		return res, jerr
	}
	opt := count.DefaultOptions()
	if spec.Seed != 0 {
		opt.Seed = spec.Seed
	}
	if spec.Budget != nil {
		opt.Budget = budget.Exec()
	}
	opt.Trace = rt.Trace
	opt.Simp = rt.Simp
	r := count.Models(ctx, c, c.Output(spec.Output), opt)
	decided := r.Decided
	res.Decided = &decided
	if decided {
		if math.IsInf(r.Log2Count, -1) {
			res.CountZero = true
		} else {
			v := r.Log2Count
			res.Log2Count = &v
		}
		res.ExactCount = r.Exact
	}
	return res, nil
}

func runSampleJob(ctx context.Context, spec JobSpec, rt JobRuntime, res JobResult) (JobResult, *JobError) {
	c, jerr := parseBench(spec.Circuit, "circuit")
	if jerr != nil {
		return res, jerr
	}
	if jerr := checkOutput(c, spec.Output); jerr != nil {
		return res, jerr
	}
	if err := ctx.Err(); err != nil {
		return res, service.Errorf(service.CodeCancelled, "%v", err)
	}
	opt := skew.DefaultSplittingOptions()
	if spec.Seed != 0 {
		opt.Seed = spec.Seed
	}
	opt.Simp = rt.Simp
	bits := skew.SplittingBits(c, c.Output(spec.Output), opt)
	res.SkewBits = &bits
	return res, nil
}

// lockErr classifies a lock failure: a cancelled or expired context
// makes it a cancelled job, anything else gets code.
func lockErr(ctx context.Context, err error, code string) *JobError {
	if ctx.Err() != nil {
		return service.Errorf(service.CodeCancelled, "%v", err)
	}
	return service.Errorf(code, "%v", err)
}

func parseBench(text, what string) (*Circuit, *JobError) {
	c, err := ReadBench(strings.NewReader(text))
	if err != nil {
		return nil, service.Errorf(service.CodeBadRequest, "%s: %v", what, err)
	}
	return c, nil
}

func benchText(c *Circuit) (string, *JobError) {
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		return "", service.Errorf(service.CodeFailed, "serializing netlist: %v", err)
	}
	return sb.String(), nil
}

func checkOutput(c *Circuit, i int) *JobError {
	if i < 0 || i >= c.NumOutputs() {
		return service.Errorf(service.CodeBadRequest,
			"output index %d out of range (circuit has %d outputs)", i, c.NumOutputs())
	}
	return nil
}

// keyString renders a key as a 0/1 string, k0 first (empty for nil).
func keyString(key []bool) string {
	if key == nil {
		return ""
	}
	var sb strings.Builder
	sb.Grow(len(key))
	for _, b := range key {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
