// Command loadgen soak-tests an obfuslockd daemon: it generates a
// deterministic mixed workload (lock, attack, cec, count and sample
// jobs over the small benchmark suite), computes every expected result
// serially in-process through the same RunJob path the daemon uses, then
// submits the jobs concurrently and asserts the daemon's result bytes
// are identical to the serial reference — the service layer's
// determinism contract, checked end to end under backpressure.
//
//	obfuslockd -addr localhost:8080 -tenants "soak=8" &
//	loadgen -addr http://localhost:8080 -jobs 64 -concurrency 16 -tenant soak
//
// A slice of the jobs is cancelled right after submission to exercise
// DELETE /v1/jobs/{id}; those are excluded from the byte comparison.
// 429 responses (tenant quota, queue backpressure) are retried and
// counted — a soak against a quota-limited daemon SHOULD see some, or it
// never exercised admission control.
//
// The run report is JSON on stdout:
//
//	{"jobs":64,"completed":58,"cancelled":6,"failed":0,
//	 "mismatches":0,"rejected_429":17}
//
// Exit status is non-zero on any mismatch or unexpected job failure, so
// CI can gate on it directly.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obfuslock"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "obfuslockd base URL")
	jobs := flag.Int("jobs", 64, "number of jobs to submit")
	concurrency := flag.Int("concurrency", 16, "concurrent submitters")
	tenant := flag.String("tenant", "", "tenant name for quota accounting")
	seed := flag.Int64("seed", 1, "workload master seed")
	cancelEvery := flag.Int("cancel-every", 8, "cancel every n-th job after submission (0: never)")
	pollEvery := flag.Duration("poll", 20*time.Millisecond, "status poll interval")
	timeout := flag.Duration("timeout", 5*time.Minute, "whole-run deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	specs := buildWorkload(*jobs, *seed, *tenant)

	// The serial reference run: the same specs through the same RunJob
	// path, one at a time. Byte-identity of the daemon's
	// results against these bytes is the whole point of the soak.
	expected := make([][]byte, len(specs))
	for i, spec := range specs {
		res, err := obfuslock.RunJob(ctx, spec, obfuslock.JobRuntime{})
		if err != nil {
			fatal(fmt.Errorf("serial reference job %d (%s): %w", i, spec.Kind, err))
		}
		enc, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		expected[i] = enc
	}

	var completed, cancelled, failed, mismatches, rejected atomic.Int64
	client := &http.Client{}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				runOne(ctx, client, *addr, specs[i], expected[i], i%max(*cancelEvery, 1) == 0 && *cancelEvery > 0,
					*pollEvery, &completed, &cancelled, &failed, &mismatches, &rejected)
			}
		}()
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()

	report := map[string]int64{
		"jobs":         int64(len(specs)),
		"completed":    completed.Load(),
		"cancelled":    cancelled.Load(),
		"failed":       failed.Load(),
		"mismatches":   mismatches.Load(),
		"rejected_429": rejected.Load(),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(report)
	if mismatches.Load() > 0 || failed.Load() > 0 {
		os.Exit(1)
	}
}

// envelope is the client-side view of a job Status: Result stays raw so
// the comparison sees the daemon's exact bytes, not a re-encoding.
type envelope struct {
	ID     string              `json:"id"`
	State  string              `json:"state"`
	Result json.RawMessage     `json:"result"`
	Error  *obfuslock.JobError `json:"error"`
}

// runOne submits one job (retrying 429 backpressure), optionally cancels
// it, polls it to a terminal state and scores the outcome.
func runOne(ctx context.Context, client *http.Client, addr string, spec obfuslock.JobSpec, want []byte,
	cancelIt bool, poll time.Duration,
	completed, cancelled, failed, mismatches, rejected *atomic.Int64) {
	body, err := json.Marshal(spec)
	if err != nil {
		failed.Add(1)
		return
	}
	var env envelope
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			failed.Add(1)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			failed.Add(1)
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected.Add(1)
			select {
			case <-ctx.Done():
				failed.Add(1)
				return
			case <-time.After(time.Duration(10+attempt%20*10) * time.Millisecond):
			}
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			fmt.Fprintf(os.Stderr, "loadgen: submit %s: HTTP %d: %s\n", spec.Kind, resp.StatusCode, strings.TrimSpace(string(data)))
			failed.Add(1)
			return
		}
		if err := json.Unmarshal(data, &env); err != nil {
			failed.Add(1)
			return
		}
		break
	}
	if cancelIt {
		req, _ := http.NewRequestWithContext(ctx, http.MethodDelete, addr+"/v1/jobs/"+env.ID, nil)
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/jobs/"+env.ID, nil)
		if err != nil {
			failed.Add(1)
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			failed.Add(1)
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(data, &env); err != nil {
			failed.Add(1)
			return
		}
		switch env.State {
		case "done":
			completed.Add(1)
			if !bytes.Equal(env.Result, want) {
				mismatches.Add(1)
				fmt.Fprintf(os.Stderr, "loadgen: MISMATCH job %s (%s):\n  daemon: %s\n  serial: %s\n",
					env.ID, spec.Kind, env.Result, want)
			}
			return
		case "cancelled":
			// Expected only for cancel targets; anything else lost a race
			// with the daemon's drain and counts as a failure.
			if cancelIt {
				cancelled.Add(1)
			} else {
				failed.Add(1)
			}
			return
		case "failed":
			failed.Add(1)
			if env.Error != nil {
				fmt.Fprintf(os.Stderr, "loadgen: job %s failed: %s\n", env.ID, env.Error.Message)
			}
			return
		}
		select {
		case <-ctx.Done():
			failed.Add(1)
			return
		case <-time.After(poll):
		}
	}
}

// buildWorkload generates the deterministic mixed spec list: per-index
// kinds and per-index seeds derived from the master seed, so the same
// (-jobs, -seed) pair always produces the same workload — and therefore
// the same expected bytes.
func buildWorkload(n int, seed int64, tenant string) []obfuslock.JobSpec {
	suite := obfuslock.SmallBenchmarks()
	benches := make([]string, len(suite))
	// Approximate model counting is exponential in input width; count
	// jobs stay on the narrow circuits so the soak is bounded by SAT
	// work, not by one pathological counting instance.
	var narrow []string
	for i, b := range suite {
		c := b.Build()
		var sb strings.Builder
		if err := obfuslock.WriteBench(&sb, c); err != nil {
			fatal(err)
		}
		benches[i] = sb.String()
		if len(c.Inputs()) <= 16 {
			narrow = append(narrow, benches[i])
		}
	}
	if len(narrow) == 0 {
		narrow = benches[:1]
	}
	schemes := obfuslock.Schemes()
	specs := make([]obfuslock.JobSpec, 0, n)
	for i := 0; i < n; i++ {
		s := obfuslock.DeriveSeed(seed, i)
		bench := benches[i%len(benches)]
		spec := obfuslock.JobSpec{
			Schema: obfuslock.JobSchemaVersion,
			Tenant: tenant,
			Label:  fmt.Sprintf("soak-%03d", i),
		}
		switch i % 5 {
		case 0, 1: // lock: rotate through the baseline schemes
			scheme := schemes[i%len(schemes)]
			spec.Kind = "lock"
			spec.Circuit = bench
			spec.Scheme = scheme
			spec.SchemeOptions = &obfuslock.SchemeOptions{
				KeyBits: 8, ProtWidth: 6, HammingDistance: 1, Seed: s,
			}
		case 2: // attack a freshly locked baseline, iteration-capped
			locked := lockFor(bench, schemes[i%len(schemes)], s)
			spec.Kind = "attack"
			spec.Circuit = locked
			spec.Oracle = bench
			spec.Attack = "sat"
			spec.AttackOptions = &obfuslock.JobAttackOptions{MaxIterations: 16, Seed: s}
		case 3: // cec: a circuit against itself (provably equivalent)
			spec.Kind = "cec"
			spec.Circuit = bench
			spec.Oracle = bench
			spec.Seed = s
		default: // count or sample, alternating
			if i%2 == 0 {
				spec.Kind = "count"
				spec.Circuit = narrow[i%len(narrow)]
			} else {
				spec.Kind = "sample"
				spec.Circuit = bench
			}
			spec.Output = 0
			spec.Seed = s
		}
		specs = append(specs, spec)
	}
	return specs
}

// lockFor builds an attack target in-process: the .bench text of the
// named baseline applied to the circuit.
func lockFor(benchText, scheme string, seed int64) string {
	res, err := obfuslock.RunJob(context.Background(), obfuslock.JobSpec{
		Schema:  obfuslock.JobSchemaVersion,
		Kind:    "lock",
		Circuit: benchText,
		Scheme:  scheme,
		SchemeOptions: &obfuslock.SchemeOptions{
			KeyBits: 8, ProtWidth: 6, HammingDistance: 1, Seed: seed,
		},
	}, obfuslock.JobRuntime{})
	if err != nil {
		fatal(err)
	}
	return res.Locked
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
