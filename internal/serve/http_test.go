package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// testClient bounds every request the suite makes: a server-side hang must
// fail the test with a timeout, not wedge the run until the suite deadline.
// Event-stream tests use testStreamClient instead (no overall Timeout — a
// stream stays open for the life of the job — but the same bounded dial).
var testClient = &http.Client{
	Timeout: 30 * time.Second,
	Transport: &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		ResponseHeaderTimeout: 10 * time.Second,
	},
}

var testStreamClient = &http.Client{Transport: testClient.Transport}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSolve(t *testing.T, ts *httptest.Server, spec JobSpec) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// metricValue extracts one sample value from Prometheus text exposition.
func metricValue(t *testing.T, exposition, name string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		if err != nil {
			t.Fatalf("metric %s has unparseable value in %q: %v", name, line, err)
		}
		return v, true
	}
	return 0, false
}

func TestHTTPSolveLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{QueueSize: 4, Workers: 1})

	resp, body := postSolve(t, ts, JobSpec{Deck: deck(32, 2)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/solve = %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad status JSON: %v\n%s", err, body)
	}
	loc := resp.Header.Get("Location")
	if loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, st.ID)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body = getBody(t, ts.URL+loc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", loc, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("bad job JSON: %v\n%s", err, body)
		}
		if st.State != StateQueued && st.State != StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != StateDone || st.Result == nil || !st.Result.Converged {
		t.Fatalf("job ended %s (%s): %+v", st.State, st.Error, st.Result)
	}

	resp, body = getBody(t, ts.URL+"/v1/jobs")
	var list []JobStatus
	if err := json.Unmarshal(body, &list); err != nil || len(list) != 1 {
		t.Errorf("GET /v1/jobs: %d entries, err %v (%s)", len(list), err, body)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{QueueSize: 2, Workers: 1})

	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"not json":       {"*tea*", http.StatusBadRequest},
		"unknown field":  {`{"mesh": 9}`, http.StatusBadRequest},
		"empty spec":     {`{}`, http.StatusBadRequest},
		"bad benchmark":  {`{"benchmark": "bm_nope"}`, http.StatusBadRequest},
		"bad fault spec": {`{"benchmark": "bm_16", "fault_spec": "x"}`, http.StatusBadRequest},
	} {
		resp, err := testClient.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		dec := json.NewDecoder(resp.Body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		} else if err := dec.Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s: no JSON error envelope (%v)", name, err)
		}
		resp.Body.Close()
	}

	if resp, body := getBody(t, ts.URL+"/v1/jobs/job-000404"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
	if resp, body := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("readyz: %d %q", resp.StatusCode, body)
	}
	if resp, _ := getBody(t, ts.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof: status %d", resp.StatusCode)
	}
}

// TestHTTPDrainLivenessVsReadiness is the drain-path probe contract: a
// draining server must FAIL readiness (so routers stop sending traffic) but
// must STAY live (so an orchestrator does not kill the process while
// in-flight jobs run to completion).
func TestHTTPDrainLivenessVsReadiness(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueSize: 2, Workers: 1})
	s.Close()
	if resp, body := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "draining") {
		t.Errorf("readyz while draining: %d %q", resp.StatusCode, body)
	}
	if resp, body := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), "ok") {
		t.Errorf("healthz must stay live while draining: %d %q", resp.StatusCode, body)
	}
	if resp, _ := postSolve(t, ts, JobSpec{Deck: deck(16, 1)}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("solve while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestHTTPReadyzFleetDegraded: a fleet job finishing on a shrunken fleet
// latches the server not-ready (capacity it was configured for is gone)
// without affecting liveness; a later full-size fleet job clears it.
func TestHTTPReadyzFleetDegraded(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueSize: 2, Workers: 1})
	s.mu.Lock()
	s.fleetDegraded = true
	s.mu.Unlock()
	if resp, body := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "fleet degraded") {
		t.Errorf("readyz while fleet-degraded: %d %q", resp.StatusCode, body)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz must stay live while fleet-degraded: %d", resp.StatusCode)
	}
	s.mu.Lock()
	s.fleetDegraded = false
	s.mu.Unlock()
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz after fleet recovery: %d", resp.StatusCode)
	}
}

// chromeTrace mirrors the trace-event JSON schema /debug/trace must emit.
type chromeTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// gatedWriter is an io.Writer whose writes block until it is closed.
type gatedWriter chan struct{}

func (g gatedWriter) Write(p []byte) (int, error) {
	<-g
	return len(p), nil
}

// waitRunning waits for a job to start running.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := s.Job(id); st.State == StateRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s did not start", id)
}

// TestHTTPServiceUnderLoad is the acceptance run: the paper's tea_bm_1
// benchmark deck submitted over HTTP until 8 solves run concurrently and
// the bounded queue pushes back, then every accepted job completes, the
// scrape-side counters agree with what the client saw, and the trace export
// decodes as Chrome trace-event JSON carrying both job and kernel spans.
func TestHTTPServiceUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second service load test")
	}
	deckBytes, err := os.ReadFile("../../decks/tea_bm_1.in")
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Deck: string(deckBytes)}

	// Every solve blocks on its first step's log line until the gate opens,
	// so the test, not the race between the workers and the client, decides
	// when the workers are busy and the queue is full.
	const workers = 8
	gate := make(chan struct{})
	s, ts := newTestServer(t, Options{QueueSize: 2, Workers: workers, Log: gatedWriter(gate)})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before the server's own cleanup drains the workers

	var ids []string
	accepted, rejected := 0, 0
	submit := func() {
		resp, body := postSolve(t, ts, spec)
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatalf("bad accept body: %v\n%s", err, body)
			}
			ids = append(ids, st.ID)
			accepted++
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			rejected++
		default:
			t.Fatalf("POST /v1/solve = %d: %s", resp.StatusCode, body)
		}
	}
	// Occupy every worker, one job at a time: each is running (and held at
	// the gate) before the next is submitted. Then fill the queue, and the
	// next submission must be rejected.
	for i := 0; i < workers; i++ {
		submit()
		if accepted != i+1 {
			t.Fatalf("submission %d rejected with %d idle workers", i+1, workers-i)
		}
		waitRunning(t, s, ids[i])
	}
	for i := 0; i < 2; i++ {
		submit()
	}
	if accepted != workers+2 {
		t.Fatalf("%d jobs accepted, want %d running and 2 queued", accepted, workers+2)
	}
	submit()
	if rejected != 1 {
		t.Fatal("bounded queue did not reject a submission with every worker busy and the queue full")
	}
	release()

	// Every accepted job completes. The lifecycle stamps a job's start and
	// settle edges under the server lock, in edge order, so the overlap of the
	// [Started, Finished) intervals is exactly the peak of the in-flight
	// gauge; sampling the gauge instead can miss a window of full concurrency
	// that is shorter than a scrape on a busy host. With 8 workers and more
	// than 8 accepted jobs the peak must be full concurrency, and never more.
	var runs []JobStatus
	for _, id := range ids {
		st := waitJob(t, s, id)
		if st.State != StateDone || st.Result == nil || !st.Result.Converged {
			t.Errorf("job %s ended %s (%s)", id, st.State, st.Error)
		}
		runs = append(runs, st)
	}
	maxInflight := peakConcurrency(runs)
	if maxInflight != workers {
		t.Errorf("at most %d solves ran concurrently, want %d", maxInflight, workers)
	}

	// Scrape-side counters must match the client's ledger exactly.
	_, body := getBody(t, ts.URL+"/metrics")
	exposition := string(body)
	for name, want := range map[string]float64{
		"teaserve_jobs_submitted_total": float64(accepted),
		"teaserve_jobs_completed_total": float64(accepted),
		"teaserve_jobs_rejected_total":  float64(rejected),
		"teaserve_jobs_failed_total":    0,
		"teaserve_jobs_inflight":        0,
		"teaserve_queue_depth":          0,
	} {
		got, ok := metricValue(t, exposition, name)
		if !ok {
			t.Errorf("metric %s missing from /metrics", name)
		} else if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if iters, ok := metricValue(t, exposition, "teaserve_cg_iterations_total"); !ok || iters <= 0 {
		t.Errorf("teaserve_cg_iterations_total = %v %v, want > 0", iters, ok)
	}
	if !strings.Contains(exposition, `tealeaf_kernel_calls_total{kernel=`) {
		t.Error("per-kernel counters missing from /metrics")
	}

	resp, body := getBody(t, ts.URL+"/debug/trace")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("trace Content-Type = %q", ct)
	}
	var tr chromeTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace export carries no events")
	}
	cats := map[string]int{}
	lastTS := -1.0
	droppedWindow := false
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" && ev.Name == "trace_dropped_spans" {
			// Documented overflow marker: enough load overflowed the span
			// ring, and the export is a window rather than the whole run.
			droppedWindow = true
			continue
		}
		if ev.Ph != "X" {
			t.Fatalf("trace event %q has phase %q, want complete events (X)", ev.Name, ev.Ph)
		}
		if ev.TS < lastTS {
			t.Fatal("trace events are not sorted by timestamp")
		}
		lastTS = ev.TS
		if ev.Dur < 0 || ev.TID < 1 || ev.PID < 1 {
			t.Fatalf("trace event %q has implausible fields: %+v", ev.Name, ev)
		}
		cats[ev.Cat]++
	}
	if cats["job"] < accepted && !droppedWindow {
		t.Errorf("trace has %d job spans, want >= %d", cats["job"], accepted)
	}
	if cats["job"] == 0 {
		t.Error("trace has no job spans")
	}
	if cats["kernel"] == 0 {
		t.Error("trace has no kernel spans")
	}
	fmt.Printf("load test: %d accepted, %d rejected, peak concurrency %d, %d trace events\n",
		accepted, rejected, maxInflight, len(tr.TraceEvents))
}

// peakConcurrency is the largest number of jobs whose [Started, Finished)
// intervals overlap. The peak is reached at some job's start, so counting the
// jobs running at each start finds it; a job that settled at the very instant
// another started is not counted as running beside it.
func peakConcurrency(runs []JobStatus) int {
	peak := 0
	for _, a := range runs {
		n := 0
		for _, b := range runs {
			if !b.Started.After(a.Started) && b.Finished.After(a.Started) {
				n++
			}
		}
		peak = max(peak, n)
	}
	return peak
}
