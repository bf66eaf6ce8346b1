package obfuslock

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"obfuslock/internal/service"
)

// jobBench returns the .bench text of a small benchmark by index.
func jobBench(t *testing.T, i int) string {
	t.Helper()
	suite := SmallBenchmarks()
	var sb strings.Builder
	if err := WriteBench(&sb, suite[i%len(suite)].Build()); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRunJobLockEverySchemeAttackRoundTrip drives the full job surface
// with the real runner: lock with every registered scheme (including the
// ObfusLock core construction), then recover each baseline's key with
// the SAT attack and verify it against the declared key length.
func TestRunJobLockEverySchemeAttackRoundTrip(t *testing.T) {
	bench := jobBench(t, 1)
	ctx := context.Background()
	for _, scheme := range JobSchemes() {
		t.Run(scheme, func(t *testing.T) {
			opt := &SchemeOptions{KeyBits: 8, ProtWidth: 6, HammingDistance: 1, Seed: 5}
			if scheme == "obfuslock" {
				opt = &SchemeOptions{SkewBits: 6, Seed: 5}
			}
			res, err := RunJob(ctx, JobSpec{
				Schema: JobSchemaVersion, Kind: "lock",
				Circuit: bench, Scheme: scheme, SchemeOptions: opt,
			}, JobRuntime{})
			if err != nil {
				t.Fatalf("lock: %v", err)
			}
			if res.Schema != JobResultSchema || res.Kind != "lock" || res.Scheme != scheme {
				t.Errorf("result header = %+v", res)
			}
			if res.Locked == "" || res.KeyBits == 0 || len(res.Key) != res.KeyBits {
				t.Fatalf("locked=%d bytes key=%q key_bits=%d", len(res.Locked), res.Key, res.KeyBits)
			}
			if scheme == "obfuslock" {
				return // attacking the core construction is the point of the paper, not of this test
			}
			att, err := RunJob(ctx, JobSpec{
				Schema: JobSchemaVersion, Kind: "attack",
				Circuit: res.Locked, Oracle: bench, Attack: "sat",
				AttackOptions: &JobAttackOptions{MaxIterations: 200, Seed: 5},
			}, JobRuntime{})
			if err != nil {
				t.Fatalf("attack: %v", err)
			}
			switch scheme {
			case "rll", "sfll-hd":
				// Low-resilience baselines fall within the cap.
				if !att.Exact {
					t.Fatalf("SAT attack did not terminate exactly on %s: %+v", scheme, att)
				}
			default:
				// The point-function schemes are built to exhaust the DIP
				// budget: either they fell anyway or they hit the cap.
				if !att.Exact && !att.TimedOut {
					t.Fatalf("attack on %s neither terminated nor hit its budget: %+v", scheme, att)
				}
			}
			if len(att.Key) != res.KeyBits {
				t.Errorf("recovered key %q has %d bits, want %d", att.Key, len(att.Key), res.KeyBits)
			}
		})
	}
}

// TestRunJobCECCountSample covers the analysis kinds end to end,
// including the tri-state fields: equivalent vs inequivalent pairs, a
// zero-model output, and a skewness estimate.
func TestRunJobCECCountSample(t *testing.T) {
	bench := jobBench(t, 2)
	ctx := context.Background()

	t.Run("cec_equivalent", func(t *testing.T) {
		res, err := RunJob(ctx, JobSpec{
			Schema: JobSchemaVersion, Kind: "cec",
			Circuit: bench, Oracle: bench, Seed: 3,
		}, JobRuntime{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Decided == nil || !*res.Decided || res.Equivalent == nil || !*res.Equivalent {
			t.Errorf("self-CEC = %+v, want decided equivalent", res)
		}
	})

	t.Run("cec_inequivalent", func(t *testing.T) {
		other := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
		mine := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n"
		res, err := RunJob(ctx, JobSpec{
			Schema: JobSchemaVersion, Kind: "cec",
			Circuit: mine, Oracle: other, Seed: 3,
		}, JobRuntime{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Decided == nil || !*res.Decided || res.Equivalent == nil || *res.Equivalent {
			t.Errorf("AND-vs-OR CEC = %+v, want decided inequivalent", res)
		}
	})

	t.Run("count_and_zero", func(t *testing.T) {
		res, err := RunJob(ctx, JobSpec{
			Schema: JobSchemaVersion, Kind: "count",
			Circuit: "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", Output: 0, Seed: 3,
		}, JobRuntime{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CountZero || res.Log2Count == nil || *res.Log2Count != 0 {
			t.Errorf("AND count = %+v, want log2 = 0 (one model)", res)
		}
		zero := "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = AND(a, na)\n"
		res, err = RunJob(ctx, JobSpec{
			Schema: JobSchemaVersion, Kind: "count",
			Circuit: zero, Output: 0, Seed: 3,
		}, JobRuntime{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.CountZero || res.Log2Count != nil {
			t.Errorf("UNSAT count = %+v, want count_zero with no log2", res)
		}
	})

	t.Run("sample", func(t *testing.T) {
		res, err := RunJob(ctx, JobSpec{
			Schema: JobSchemaVersion, Kind: "sample",
			Circuit: bench, Output: 0, Seed: 3,
		}, JobRuntime{})
		if err != nil {
			t.Fatal(err)
		}
		if res.SkewBits == nil {
			t.Fatalf("sample returned no skewness: %+v", res)
		}
	})
}

// TestRunJobErrorPaths maps runner failures onto structured job errors:
// every error RunJob returns is a *JobError with a stable code.
func TestRunJobErrorPaths(t *testing.T) {
	bench := jobBench(t, 0)
	ctx := context.Background()
	cases := []struct {
		name string
		spec JobSpec
		code string
	}{
		{"bad_schema", JobSpec{Schema: "nope", Kind: "cec", Circuit: bench, Oracle: bench}, "bad_schema"},
		{"bad_bench_text", JobSpec{Schema: JobSchemaVersion, Kind: "cec", Circuit: "y = FROB(a)\n", Oracle: bench}, "bad_request"},
		{"unknown_scheme", JobSpec{Schema: JobSchemaVersion, Kind: "lock", Circuit: bench, Scheme: "rot13"}, "bad_request"},
		{"unknown_attack", JobSpec{Schema: JobSchemaVersion, Kind: "attack", Circuit: bench, Oracle: bench, Attack: "guess"}, "bad_request"},
		{"output_out_of_range", JobSpec{Schema: JobSchemaVersion, Kind: "count", Circuit: bench, Output: 9999}, "bad_request"},
		{"attack_io_mismatch", JobSpec{Schema: JobSchemaVersion, Kind: "attack", Circuit: bench, Oracle: "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", Attack: "sat"}, "bad_request"},
		// Budget fields no layer of the kind applies are refused, not
		// silently dropped.
		{"lock_max_conflicts", JobSpec{Schema: JobSchemaVersion, Kind: "lock", Circuit: bench, Scheme: "obfuslock", Budget: &JobBudget{TimeoutMS: 1, MaxConflicts: 1}}, "bad_request"},
		{"attack_max_conflicts", JobSpec{Schema: JobSchemaVersion, Kind: "attack", Circuit: bench, Oracle: bench, Attack: "sat", Budget: &JobBudget{MaxConflicts: 1}}, "bad_request"},
		{"sample_budget", JobSpec{Schema: JobSchemaVersion, Kind: "sample", Circuit: bench, Budget: &JobBudget{TimeoutMS: 1}}, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunJob(ctx, tc.spec, JobRuntime{})
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			var jerr *JobError
			if !errors.As(err, &jerr) {
				t.Fatalf("error is %T, want *JobError: %v", err, err)
			}
			if jerr.Code != tc.code {
				t.Errorf("code = %s, want %s (message: %s)", jerr.Code, tc.code, jerr.Message)
			}
		})
	}
}

// TestDecodeJobSpec: a spec encoded as JSON decodes back to a runnable
// spec, and an unknown field is a bad_request *JobError.
func TestDecodeJobSpec(t *testing.T) {
	bench := jobBench(t, 2)
	enc, err := json.Marshal(JobSpec{Schema: JobSchemaVersion, Kind: "cec", Circuit: bench, Oracle: bench, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := DecodeJobSpec(strings.NewReader(string(enc)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunJob(context.Background(), spec, JobRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent == nil || !*res.Equivalent {
		t.Errorf("decoded self-CEC = %+v, want equivalent", res)
	}
	_, err = DecodeJobSpec(strings.NewReader(string(enc[:len(enc)-1]) + `,"bogus":1}`))
	var jerr *JobError
	if !errors.As(err, &jerr) || jerr.Code != "bad_request" {
		t.Errorf("unknown field: err = %v, want a bad_request *JobError", err)
	}
}

// TestRunJobPortfolioAttackRejected: "portfolio" is not a registered
// attack, so a well-formed attack job on a real locked netlist naming it
// is a bad request, not a run.
func TestRunJobPortfolioAttackRejected(t *testing.T) {
	bench := jobBench(t, 3)
	locked, err := RunJob(context.Background(), JobSpec{
		Schema: JobSchemaVersion, Kind: "lock", Circuit: bench,
		Scheme: "sarlock", SchemeOptions: &SchemeOptions{ProtWidth: 8, Seed: 9},
	}, JobRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunJob(context.Background(), JobSpec{
		Schema: JobSchemaVersion, Kind: "attack",
		Circuit: locked.Locked, Oracle: bench, Attack: "portfolio",
		AttackOptions: &JobAttackOptions{MaxIterations: 4, Seed: 1},
	}, JobRuntime{})
	var jerr *JobError
	if !errors.As(err, &jerr) || jerr.Code != service.CodeBadRequest {
		t.Fatalf("portfolio attack job = %v, want %s", err, service.CodeBadRequest)
	}
	if !strings.Contains(jerr.Message, "portfolio") {
		t.Errorf("error message %q does not name the attack", jerr.Message)
	}
}

// TestRunJobCancellation proves context cancellation and an expired
// budget surface promptly: pre-cancelled, mid-attack, and a lock whose
// timeout_ms runs out.
func TestRunJobCancellation(t *testing.T) {
	bench := jobBench(t, 3)

	t.Run("pre_cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RunJob(ctx, JobSpec{
			Schema: JobSchemaVersion, Kind: "sample", Circuit: bench, Output: 0,
		}, JobRuntime{})
		var jerr *JobError
		if !errors.As(err, &jerr) || jerr.Code != "cancelled" {
			t.Fatalf("pre-cancelled sample = %v, want cancelled", err)
		}
	})

	t.Run("mid_attack", func(t *testing.T) {
		// An Anti-SAT instance the iteration-capped attack cannot finish
		// quickly; cancel shortly after it starts.
		locked, err := RunJob(context.Background(), JobSpec{
			Schema: JobSchemaVersion, Kind: "lock", Circuit: bench,
			Scheme: "antisat", SchemeOptions: &SchemeOptions{ProtWidth: 10, Seed: 7},
		}, JobRuntime{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		res, err := RunJob(ctx, JobSpec{
			Schema: JobSchemaVersion, Kind: "attack",
			Circuit: locked.Locked, Oracle: bench, Attack: "sat",
			AttackOptions: &JobAttackOptions{Seed: 7},
		}, JobRuntime{})
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("cancellation took %v to propagate", took)
		}
		// The attack layer reports a budget-expired run as a timed-out
		// result rather than an error; either form is a prompt stop.
		if err == nil && !res.TimedOut {
			t.Errorf("cancelled attack returned a terminal result: %+v", res)
		}
	})

	t.Run("lock_timeout", func(t *testing.T) {
		start := time.Now()
		_, err := RunJob(context.Background(), JobSpec{
			Schema: JobSchemaVersion, Kind: "lock", Circuit: bench,
			Scheme: "obfuslock", SchemeOptions: &SchemeOptions{SkewBits: 8, Seed: 1},
			Budget: &JobBudget{TimeoutMS: 1},
		}, JobRuntime{})
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("lock budget took %v to stop the job", took)
		}
		var jerr *JobError
		if !errors.As(err, &jerr) || jerr.Code != "cancelled" {
			t.Fatalf("lock with timeout_ms 1 = %v, want cancelled", err)
		}
	})
}

// TestRunJobConcurrentByteIdentity is the in-process soak: the same
// mixed specs run serially and then concurrently, and every result must
// be byte-identical to its serial reference.
func TestRunJobConcurrentByteIdentity(t *testing.T) {
	ctx := context.Background()
	var specs []JobSpec
	for i := 0; i < 12; i++ {
		bench := jobBench(t, i)
		seed := DeriveSeed(42, i)
		switch i % 4 {
		case 0:
			schemes := Schemes()
			specs = append(specs, JobSpec{
				Schema: JobSchemaVersion, Kind: "lock", Circuit: bench,
				Scheme: schemes[i%len(schemes)],
				SchemeOptions: &SchemeOptions{
					KeyBits: 8, ProtWidth: 6, HammingDistance: 1, Seed: seed,
				},
			})
		case 1:
			specs = append(specs, JobSpec{
				Schema: JobSchemaVersion, Kind: "cec", Circuit: bench, Oracle: bench, Seed: seed,
			})
		case 2:
			specs = append(specs, JobSpec{
				Schema: JobSchemaVersion, Kind: "sample", Circuit: bench, Output: 0, Seed: seed,
			})
		default:
			locked, err := RunJob(ctx, JobSpec{
				Schema: JobSchemaVersion, Kind: "lock", Circuit: bench,
				Scheme: "rll", SchemeOptions: &SchemeOptions{KeyBits: 8, Seed: seed},
			}, JobRuntime{})
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, JobSpec{
				Schema: JobSchemaVersion, Kind: "attack",
				Circuit: locked.Locked, Oracle: bench, Attack: "sat",
				AttackOptions: &JobAttackOptions{MaxIterations: 16, Seed: seed},
			})
		}
	}

	// Approximate model counting is exponential in input width, so count
	// jobs run on the narrow circuits only.
	for i, b := range SmallBenchmarks() {
		if len(b.Build().Inputs()) > 16 {
			continue
		}
		specs = append(specs, JobSpec{
			Schema: JobSchemaVersion, Kind: "count", Circuit: jobBench(t, i),
			Output: 0, Seed: DeriveSeed(42, 12+i),
		})
	}

	serial := make([][]byte, len(specs))
	for i, spec := range specs {
		res, err := RunJob(ctx, spec, JobRuntime{})
		if err != nil {
			t.Fatalf("serial job %d (%s): %v", i, spec.Kind, err)
		}
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = enc
	}

	rt := JobRuntime{}
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(specs))
	for round := 0; round < 3; round++ {
		for i, spec := range specs {
			wg.Add(1)
			go func(round, i int, spec JobSpec) {
				defer wg.Done()
				res, err := RunJob(ctx, spec, rt)
				if err != nil {
					errs <- fmt.Errorf("round %d job %d: %w", round, i, err)
					return
				}
				enc, err := json.Marshal(res)
				if err != nil {
					errs <- err
					return
				}
				if string(enc) != string(serial[i]) {
					errs <- fmt.Errorf("round %d job %d (%s) diverged:\n concurrent: %s\n serial:     %s",
						round, i, spec.Kind, enc, serial[i])
				}
			}(round, i, spec)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
