package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"obfuslock/internal/obs"
)

// stubRunner is a controllable Runner: it records every spec it sees,
// optionally blocks until released or cancelled, and returns a canned
// result echoing the job kind.
type stubRunner struct {
	mu      sync.Mutex
	specs   []JobSpec
	block   chan struct{} // when non-nil, Run waits for close or ctx
	fail    *Error
	onTrace string // span name emitted through the per-job tracer
}

func (r *stubRunner) Run(ctx context.Context, spec JobSpec, tr *obs.Tracer) (JobResult, *Error) {
	r.mu.Lock()
	r.specs = append(r.specs, spec)
	block := r.block
	r.mu.Unlock()
	if r.onTrace != "" {
		sp := tr.Span(r.onTrace)
		sp.End()
	}
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return JobResult{}, Errorf(CodeCancelled, "runner: %v", ctx.Err())
		}
	}
	if r.fail != nil {
		return JobResult{}, r.fail
	}
	return JobResult{Schema: ResultSchema, Kind: spec.Kind, Key: "101", KeyBits: 3}, nil
}

func (r *stubRunner) seen() []JobSpec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]JobSpec(nil), r.specs...)
}

const testBench = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"

func validSpec(kind string) JobSpec {
	spec := JobSpec{Schema: SchemaVersion, Kind: kind, Circuit: testBench}
	switch kind {
	case KindLock:
		spec.Scheme = "rll"
	case KindAttack:
		spec.Oracle = testBench
		spec.Attack = "sat"
	case KindCEC:
		spec.Oracle = testBench
	}
	return spec
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec, query string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func decodeError(t *testing.T, data []byte) *Error {
	t.Helper()
	var body struct {
		Error *Error `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("response is not a structured error: %v (%s)", err, data)
	}
	if body.Error == nil {
		t.Fatalf("response has no error object: %s", data)
	}
	return body.Error
}

// TestSubmitPollLifecycle covers the async happy path: 202 with a
// Location header, queued/running visible while polling, and a terminal
// envelope whose result echoes the runner's.
func TestSubmitPollLifecycle(t *testing.T) {
	runner := &stubRunner{}
	srv := New(Config{Runner: runner, Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postJob(t, ts, validSpec(KindCEC), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202: %s", resp.StatusCode, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || resp.Header.Get("Location") != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q, id = %q", resp.Header.Get("Location"), st.ID)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (error %v), want done", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.Kind != KindCEC || fin.Result.Schema != ResultSchema {
		t.Errorf("result = %+v", fin.Result)
	}
	if fin.CreatedAt == "" || fin.StartedAt == "" || fin.FinishedAt == "" {
		t.Errorf("missing lifecycle timestamps: %+v", fin)
	}
	if got := runner.seen(); len(got) != 1 || got[0].Kind != KindCEC {
		t.Errorf("runner saw %+v", got)
	}
}

// TestSubmitWaitMode covers ?wait=1: one round trip, 200, terminal
// envelope in the body.
func TestSubmitWaitMode(t *testing.T) {
	srv := New(Config{Runner: &stubRunner{}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postJob(t, ts, validSpec(KindCount), "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit = %d: %s", resp.StatusCode, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Result == nil {
		t.Errorf("wait-mode envelope = %+v", st)
	}
}

// TestSubmitValidation maps the admission failures onto their structured
// errors and HTTP statuses, including registry-backed scheme/attack
// checks.
func TestSubmitValidation(t *testing.T) {
	srv := New(Config{
		Runner:  &stubRunner{},
		Schemes: []string{"rll", "obfuslock"},
		Attacks: []string{"sat"},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	unknownScheme := validSpec(KindLock)
	unknownScheme.Scheme = "xor-extra"
	unknownAttack := validSpec(KindAttack)
	unknownAttack.Attack = "quantum"
	badSchema := validSpec(KindCEC)
	badSchema.Schema = "obfuslock-job/v9"

	cases := []struct {
		name   string
		spec   JobSpec
		status int
		code   string
	}{
		{"unknown_scheme", unknownScheme, 400, CodeBadRequest},
		{"unknown_attack", unknownAttack, 400, CodeBadRequest},
		{"bad_schema", badSchema, 400, CodeBadSchema},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJob(t, ts, tc.spec, "")
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			if jerr := decodeError(t, data); jerr.Code != tc.code {
				t.Errorf("code = %s, want %s", jerr.Code, tc.code)
			}
		})
	}

	// Raw malformed bodies never reach the runner either.
	for _, body := range []string{"", "{", `{"schema":"obfuslock-job/v1","kind":"cec","circuit":"x","oracle":"y","extra":1}`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("body %q: status %d, want 400: %s", body, resp.StatusCode, data)
		}
	}
}

// TestQuotaBackpressure fills a tenant's MaxActive quota with blocked
// jobs and proves the next submission is a 429/quota_exhausted with
// Retry-After, while another tenant still gets in.
func TestQuotaBackpressure(t *testing.T) {
	block := make(chan struct{})
	runner := &stubRunner{block: block}
	srv := New(Config{
		Runner:        runner,
		Workers:       4,
		DefaultLimits: TenantLimits{MaxActive: 2},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := validSpec(KindCEC)
	spec.Tenant = "quota"
	var ids []string
	for i := 0; i < 2; i++ {
		resp, data := postJob(t, ts, spec, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d = %d: %s", i, resp.StatusCode, data)
		}
		var st Status
		json.Unmarshal(data, &st)
		ids = append(ids, st.ID)
	}
	resp, data := postJob(t, ts, spec, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota = %d, want 429: %s", resp.StatusCode, data)
	}
	if jerr := decodeError(t, data); jerr.Code != CodeQuotaExhausted {
		t.Errorf("code = %s, want %s", jerr.Code, CodeQuotaExhausted)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	other := validSpec(KindCEC)
	other.Tenant = "neighbor"
	if resp, data := postJob(t, ts, other, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant blocked by neighbor's quota: %d %s", resp.StatusCode, data)
	}

	close(block)
	for _, id := range ids {
		waitTerminal(t, ts, id)
	}
	// Slots free after completion: the tenant can submit again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postJob(t, ts, spec, "")
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("quota slot never released after completion")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueueFullBackpressure saturates the bounded backlog behind one
// busy worker and proves the overflow submission is 429/queue_full.
func TestQueueFullBackpressure(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := New(Config{Runner: &stubRunner{block: block}, Workers: 1, QueueDepth: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// First job occupies the worker; the backlog (depth 1) then fills.
	// The worker dequeues asynchronously, so saturation may take an extra
	// submission or two — keep going until the queue pushes back.
	saw429 := false
	for i := 0; i < 10 && !saw429; i++ {
		resp, data := postJob(t, ts, validSpec(KindCEC), "")
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
			if jerr := decodeError(t, data); jerr.Code != CodeQueueFull {
				t.Errorf("code = %s, want %s", jerr.Code, CodeQueueFull)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d: %s", resp.StatusCode, data)
		}
	}
	if !saw429 {
		t.Fatal("backlog never saturated")
	}
}

// TestCancelRunningJob proves DELETE propagates to the runner's context
// and the job lands in cancelled, not done.
func TestCancelRunningJob(t *testing.T) {
	runner := &stubRunner{block: make(chan struct{})} // only ctx releases it
	srv := New(Config{Runner: runner})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, data := postJob(t, ts, validSpec(KindSample), "")
	var st Status
	json.Unmarshal(data, &st)

	// Wait until the runner actually has the job.
	deadline := time.Now().Add(5 * time.Second)
	for len(runner.seen()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", fin.State)
	}
	if fin.Error == nil || fin.Error.Code != CodeCancelled {
		t.Errorf("error = %+v, want code %s", fin.Error, CodeCancelled)
	}
	if fin.Result != nil {
		t.Errorf("cancelled job carries a result: %+v", fin.Result)
	}
}

// TestUnknownJobRoutes pins the 404 surface.
func TestUnknownJobRoutes(t *testing.T) {
	srv := New(Config{Runner: &stubRunner{}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/jobs/j-999999", "/v1/jobs/j-999999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, resp.StatusCode)
		}
		if jerr := decodeError(t, data); jerr.Code != CodeUnknownJob {
			t.Errorf("%s code = %s, want %s", path, jerr.Code, CodeUnknownJob)
		}
	}
}

// TestEventStream proves the per-job tracer lands in /events as JSONL,
// and that ?follow=1 tails until the job completes.
func TestEventStream(t *testing.T) {
	block := make(chan struct{})
	runner := &stubRunner{block: block, onTrace: "stub_phase"}
	srv := New(Config{Runner: runner})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, data := postJob(t, ts, validSpec(KindCount), "")
	var st Status
	json.Unmarshal(data, &st)

	// Follow the stream while the job is still running; the reader must
	// see the span record and then get EOF when the job finishes.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	time.AfterFunc(50*time.Millisecond, func() { close(block) })
	sawSpan := false
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON event line %q: %v", scanner.Text(), err)
		}
		if name, _ := rec["name"].(string); strings.Contains(name, "stub_phase") {
			sawSpan = true
		}
	}
	if !sawSpan {
		t.Error("tracer span never reached the event stream")
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.Events == 0 {
		t.Error("envelope reports zero events")
	}
}

// TestBudgetClampWrittenBack proves tenant ceilings rewrite the spec the
// runner sees: the admission-time Clamp is not advisory.
func TestBudgetClampWrittenBack(t *testing.T) {
	runner := &stubRunner{}
	srv := New(Config{
		Runner:        runner,
		DefaultLimits: TenantLimits{MaxTimeoutMS: 1000, MaxConflicts: 500},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := validSpec(KindCEC)
	spec.Budget = &Budget{TimeoutMS: 99_000}
	_, data := postJob(t, ts, spec, "?wait=1")
	var st Status
	json.Unmarshal(data, &st)
	seen := runner.seen()
	if len(seen) != 1 || seen[0].Budget == nil {
		t.Fatalf("runner saw %+v", seen)
	}
	want := Budget{TimeoutMS: 1000, MaxConflicts: 500}
	if *seen[0].Budget != want {
		t.Errorf("clamped budget = %+v, want %+v", *seen[0].Budget, want)
	}
}

// TestFailedJobEnvelope routes a runner error into state failed with the
// structured error in the envelope.
func TestFailedJobEnvelope(t *testing.T) {
	runner := &stubRunner{fail: Errorf(CodeFailed, "solver exploded")}
	srv := New(Config{Runner: runner})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, data := postJob(t, ts, validSpec(KindCEC), "?wait=1")
	var st Status
	json.Unmarshal(data, &st)
	if st.State != StateFailed || st.Error == nil || st.Error.Code != CodeFailed {
		t.Errorf("envelope = %+v", st)
	}
}

// TestListAndSchemaEndpoints smoke-tests GET /v1/jobs and /v1/schema.
func TestListAndSchemaEndpoints(t *testing.T) {
	srv := New(Config{Runner: &stubRunner{}, Schemes: []string{"rll"}, Attacks: []string{"sat"}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJob(t, ts, validSpec(KindCEC), "?wait=1")
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list.Jobs) != 1 {
		t.Errorf("job list has %d entries, want 1", len(list.Jobs))
	}

	resp, err = http.Get(ts.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	var schema struct {
		JobSchema    string   `json:"job_schema"`
		ResultSchema string   `json:"result_schema"`
		Kinds        []string `json:"kinds"`
		Schemes      []string `json:"schemes"`
		Attacks      []string `json:"attacks"`
	}
	json.NewDecoder(resp.Body).Decode(&schema)
	resp.Body.Close()
	if schema.JobSchema != SchemaVersion || schema.ResultSchema != ResultSchema {
		t.Errorf("schema endpoint = %+v", schema)
	}
	if len(schema.Kinds) != len(Kinds()) || len(schema.Schemes) != 1 || len(schema.Attacks) != 1 {
		t.Errorf("schema lists = %+v", schema)
	}
}

// TestServiceMetrics proves the registry counters track the lifecycle:
// submissions, completions, rejections.
func TestServiceMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	block := make(chan struct{})
	srv := New(Config{
		Runner:        &stubRunner{block: block},
		Workers:       1,
		DefaultLimits: TenantLimits{MaxActive: 1},
		Registry:      reg,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, first := postJob(t, ts, validSpec(KindCEC), "")
	var st Status
	json.Unmarshal(first, &st)
	if resp, _ := postJob(t, ts, validSpec(KindCEC), ""); resp.StatusCode != 429 {
		t.Fatalf("second submit = %d, want 429", resp.StatusCode)
	}
	close(block)
	waitTerminal(t, ts, st.ID)

	snap := map[string]float64{}
	for _, m := range reg.Snapshot() {
		snap[m.Name] = m.Value
	}
	if snap[MetricJobsSubmitted] != 1 || snap[MetricJobsDone] != 1 || snap[MetricRejectedQuota] != 1 {
		t.Errorf("metrics = %+v", snap)
	}
}

// TestMethodNotAllowed pins the 405 surface.
func TestMethodNotAllowed(t *testing.T) {
	srv := New(Config{Runner: &stubRunner{}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs", strings.NewReader("{}"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/jobs = %d, want 405", resp.StatusCode)
	}
}

// TestNewPanicsWithoutRunner pins the constructor contract.
func TestNewPanicsWithoutRunner(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted a nil Runner")
		}
	}()
	New(Config{})
}
