// Command obfuslockd serves the obfuslock job API over HTTP: locking
// (ObfusLock and the baseline schemes), the oracle-guided attacks,
// equivalence checking, model counting and skewness sampling, all as
// asynchronous jobs.
//
//	obfuslockd -addr localhost:8080 -job-workers 4 -queue-depth 64 \
//	    -tenants "ci=4,interactive=2" -max-timeout 2m
//
// Endpoints (see DESIGN.md "Service layer" and README "Running as a
// service"):
//
//	POST   /v1/jobs            submit a job (202; ?wait=1 blocks)
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       poll one job
//	GET    /v1/jobs/{id}/events  JSONL progress stream (?follow=1 tails)
//	DELETE /v1/jobs/{id}       cancel (propagates to the SAT solvers)
//	GET    /v1/schema          schema versions, kinds, schemes, attacks
//	GET    /healthz            liveness and drain state
//	GET    /metrics            metric registry (also /flight, /debug/pprof)
//
// Admission control: -queue-depth bounds the backlog (beyond it,
// submissions get 429/queue_full with Retry-After), -tenants sets
// per-tenant active-job quotas (429/quota_exhausted), and the -max-*
// flags cap every job's budget. Results are deterministic: a job's
// result bytes are identical whether the daemon is idle or saturated
// (cmd/loadgen asserts this).
//
// SIGINT/SIGTERM starts a graceful drain: new submissions get
// 503/draining, queued and running jobs finish (or are cancelled when
// -drain-timeout expires), the ledger is flushed, and the process exits
// zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"obfuslock"
	"obfuslock/internal/cliflags"
	"obfuslock/internal/obs"
	"obfuslock/internal/service"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "HTTP listen address")
	jobWorkers := flag.Int("job-workers", 0, "concurrent job executions (0: GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", service.DefaultQueueDepth, "backlog bound; submissions beyond it get 429/queue_full")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before in-flight jobs are cancelled")
	tenants := flag.String("tenants", "", `per-tenant active-job quotas, e.g. "ci=4,interactive=2" (others use -max-active)`)
	maxActive := flag.Int("max-active", 0, "default per-tenant active-job quota (0: unlimited)")
	maxTimeout := flag.Duration("max-timeout", 0, "per-job wall-clock ceiling; jobs asking for nothing inherit it (0: none)")
	maxConflicts := flag.Int64("max-conflicts", 0, "per-solve SAT conflict ceiling (0: none)")

	var solver cliflags.Solver
	var tele cliflags.Telemetry
	solver.Register(flag.CommandLine)
	tele.Register(flag.CommandLine)
	flag.Parse()

	overrides, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obfuslockd:", err)
		flag.Usage()
		os.Exit(2)
	}

	sess, err := tele.Start("obfuslockd")
	if err != nil {
		fatal(err)
	}
	defer sess.Finish()
	sess.ArmFlightDump()
	defer sess.PanicDump()

	def := service.TenantLimits{
		MaxActive:    *maxActive,
		MaxTimeoutMS: maxTimeout.Milliseconds(),
		MaxConflicts: *maxConflicts,
	}
	for name, tl := range overrides {
		// Tenant overrides set the quota; budget ceilings are global.
		tl.MaxTimeoutMS = def.MaxTimeoutMS
		tl.MaxConflicts = def.MaxConflicts
		overrides[name] = tl
	}

	runner := obfuslock.NewJobRunner(obfuslock.JobRuntime{Simp: solver.SimpOptions()})
	srv := service.New(service.Config{
		Runner:        withDIPBatchDefault(runner, solver.DIPBatch),
		Workers:       *jobWorkers,
		QueueDepth:    *queueDepth,
		DefaultLimits: def,
		Tenants:       overrides,
		Schemes:       obfuslock.JobSchemes(),
		Attacks:       attackNames(),
		Registry:      sess.Registry,
		ExtraSink:     sess.Sink,
	})

	// One mux serves both the job API and the debug endpoints, so
	// /metrics reflects the scheduler gauges and per-job span histograms
	// without a second listener (-debug-addr still works for a separate
	// one).
	tracer := sess.Tracer
	if tracer == nil {
		tracer = obs.NewWithRegistry(obs.Discard, sess.Registry)
	}
	dbg := obs.NewDebugMux(tracer, sess.Flight)
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	mux.Handle("/healthz", srv.Handler())
	mux.Handle("/metrics", dbg)
	mux.Handle("/flight", dbg)
	mux.Handle("/debug/", dbg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: mux}
	fmt.Fprintf(os.Stderr, "obfuslockd: serving on http://%s (workers=%d queue=%d)\n",
		ln.Addr(), *jobWorkers, *queueDepth)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fatal(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "obfuslockd: %v — draining (budget %v)\n", s, *drainTimeout)
	}

	// Two-phase shutdown: first drain the job engine (submissions get
	// 503 while in-flight jobs finish or, past the budget, are cancelled
	// down to their SAT conflict loops), then close the HTTP listener,
	// then flush the ledger.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	drainErr := srv.Drain(dctx)
	cancel()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	hs.Shutdown(sctx)
	cancel()
	srv.Close()
	if err := sess.WriteLedger(); err != nil {
		fmt.Fprintln(os.Stderr, "obfuslockd:", err)
	}
	if drainErr != nil {
		fatal(drainErr)
	}
	fmt.Fprintln(os.Stderr, "obfuslockd: drained cleanly")
}

// withDIPBatchDefault applies the daemon's -dip-batch as the default for
// attack jobs whose spec leaves the width unset. 0 (the flag default)
// changes nothing, keeping daemon transcripts identical to in-process
// RunJob calls with the same specs.
func withDIPBatchDefault(r obfuslock.JobRunner, dipBatch int) obfuslock.JobRunner {
	if dipBatch == 0 {
		return r
	}
	return service.RunnerFunc(func(ctx context.Context, spec service.JobSpec, tr *obs.Tracer) (service.JobResult, *service.Error) {
		if spec.Kind == service.KindAttack {
			if spec.AttackOptions == nil {
				spec.AttackOptions = &service.AttackOptions{}
			}
			if spec.AttackOptions.DIPBatch == 0 {
				ao := *spec.AttackOptions
				ao.DIPBatch = dipBatch
				spec.AttackOptions = &ao
			}
		}
		return r.Run(ctx, spec, tr)
	})
}

// attackNames lists the registered oracle-guided attacks for the
// server's admission-time validation and /v1/schema.
func attackNames() []string {
	var names []string
	for _, a := range obfuslock.Attacks() {
		names = append(names, a.Name())
	}
	return names
}

// parseTenants parses the -tenants syntax: comma-separated
// name=maxactive pairs.
func parseTenants(s string) (map[string]service.TenantLimits, error) {
	out := map[string]service.TenantLimits{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, quota, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenants entry %q (want name=maxactive)", part)
		}
		n, err := strconv.Atoi(quota)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -tenants quota in %q", part)
		}
		out[name] = service.TenantLimits{MaxActive: n}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obfuslockd:", err)
	os.Exit(1)
}
