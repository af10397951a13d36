package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"onionbots/internal/experiment"
)

// newTestServer builds a Server over a temp jobs dir, starts its
// executor, and fronts it with httptest. The returned base URL has no
// trailing slash.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{
		JobsDir:      t.TempDir(),
		Parallel:     2,
		QueueDepth:   4,
		SubmitBurst:  1000,
		SubmitPerSec: 1000,
		Logf:         t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.exec.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		close(s.shutdown)
		s.exec.Shutdown()
	})
	return s, ts.URL
}

func submit(t *testing.T, base, spec string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("submit response %q: %v", body, err)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return st, resp
}

func waitState(t *testing.T, base, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (%s), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// Submit → stream → result: the end-to-end happy path, with the result
// byte-identical to the batch document.
func TestServerSubmitStreamResult(t *testing.T) {
	_, base := newTestServer(t, nil)
	st, resp := submit(t, base, resumeSpec)
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	if st.Total != 6 || st.State != JobQueued {
		t.Fatalf("submit status = %+v", st)
	}

	// Stream until terminal; count live task events.
	streamResp, err := http.Get(base + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	taskEvents, terminal := 0, JobState("")
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "task":
			taskEvents++
			if ev.Replayed {
				t.Fatalf("fresh job emitted replayed event %+v", ev)
			}
		case "state":
			if ev.State.Terminal() {
				terminal = ev.State
			}
		}
	}
	if terminal != JobCompleted {
		t.Fatalf("stream ended at %q, want completed", terminal)
	}
	if taskEvents != 6 {
		t.Fatalf("stream carried %d task events, want 6", taskEvents)
	}

	want, err := batchDocument([]byte(resumeSpec), 1)
	if err != nil {
		t.Fatal(err)
	}
	resResp, err := http.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resResp.Body.Close()
	got, _ := io.ReadAll(resResp.Body)
	if !bytes.Equal(got, want) {
		t.Fatalf("served result differs from batch document (%d vs %d bytes)", len(got), len(want))
	}
}

// A malformed spec names its own bug in the 400 body: offending field
// and line, courtesy of jsonx.
func TestServerRejectsMalformedSpecWithLocation(t *testing.T) {
	_, base := newTestServer(t, nil)
	_, resp := submit(t, base, "{\n  \"experiments\": [\"serve-det\"],\n  \"ns\": \"lots\"\n}")
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), `field \"ns\"`) || !strings.Contains(string(body), "line 3") {
		t.Fatalf("400 body does not locate the bug: %s", body)
	}
}

// A grid that parses but could never run cleanly — a value listed
// twice collides on its task label, a fraction above 1 crashes fig4's
// worker — is refused at submission, before any job is created.
func TestServerRejectsBadAxisValues(t *testing.T) {
	_, base := newTestServer(t, nil)
	for spec, want := range map[string]string{
		`{"experiments":["fig6"],"ns":[800,800]}`: `duplicate n spec`,
		`{"experiments":["fig4"],"fracs":[2]}`:    `fracs[0]: 2 outside (0, 1]`,
	} {
		_, resp := submit(t, base, spec)
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
			t.Errorf("%s: status %d body %s, want 400 naming %q", spec, resp.StatusCode, body, want)
		}
	}
}

// A jobs directory written under a more lenient parser still loads.
// Job 1 completed with an axis fig5 does not read, job 2 was queued
// with a seed listed twice; both specs parse no longer. The server
// starts anyway: the finished job keeps its state and result, the
// unfinished one is listed failed with the parse error, and a valid
// queued job behind them still resumes and completes.
func TestServerStartsOverStoredSpecsThatNoLongerParse(t *testing.T) {
	dir := t.TempDir()
	seed := func(id, spec, state string) string {
		t.Helper()
		jobDir := filepath.Join(dir, id)
		if err := os.MkdirAll(jobDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string]string{
			"spec.json":  spec,
			"state.json": `{"state":"` + state + `"}` + "\n",
		} {
			if err := os.WriteFile(filepath.Join(jobDir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return jobDir
	}
	doneDir := seed("job-000001", `{"experiments":["fig5"],"churn":[{"process":"poisson","leave":8}]}`, "completed")
	jr, err := OpenJournal(filepath.Join(doneDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(experiment.TaskResult{Task: experiment.Task{
		Label: "fig5/churn=poisson;l=8", Experiment: "fig5"}}); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	const result = `{"id":"sweep-fig5"}` + "\n"
	if err := os.WriteFile(filepath.Join(doneDir, "result.json"), []byte(result), 0o644); err != nil {
		t.Fatal(err)
	}
	seed("job-000002", `{"experiments":["serve-det"],"seeds":[1,1]}`, "queued")
	seed("job-000003", `{"experiments":["serve-det"],"quick":true,"seeds":[1]}`, "queued")

	_, base := newTestServer(t, func(c *Config) { c.JobsDir = dir })
	if st := waitState(t, base, "job-000001", JobCompleted); st.Total != 1 || st.Done != 1 {
		t.Errorf("completed job status = %+v, want 1 of 1 task done", st)
	}
	resp, err := http.Get(base + "/jobs/job-000001/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != result {
		t.Errorf("completed job result: %d %q, want 200 %q", resp.StatusCode, body, result)
	}
	waitState(t, base, "job-000003", JobCompleted)

	resp, err = http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 3 {
		t.Fatalf("listing has %d jobs, want 3: %+v", len(listing.Jobs), listing.Jobs)
	}
	if st := listing.Jobs[1]; st.State != JobFailed ||
		!strings.Contains(st.Error, "stored spec no longer parses") || !strings.Contains(st.Error, "duplicate seed spec") {
		t.Errorf("listing[1] = %+v, want failed naming the duplicate seed", st)
	}
}

// Admission control: an exhausted token bucket answers 429 with a
// usable Retry-After.
func TestServerRateLimitsSubmissions(t *testing.T) {
	_, base := newTestServer(t, func(cfg *Config) {
		cfg.SubmitBurst = 1
		cfg.SubmitPerSec = 0.01 // one token every 100 s
	})
	if _, resp := submit(t, base, resumeSpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	_, resp := submit(t, base, resumeSpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// Queue saturation: with the single execution slot blocked and the
// queue full, further submissions get 429 + Retry-After.
func TestServerRejectsWhenQueueSaturated(t *testing.T) {
	resetGate()
	defer releaseGate()
	gateSpec := `{"name":"gated","experiments":["serve-gate"],"seeds":[1]}`
	_, base := newTestServer(t, func(cfg *Config) { cfg.QueueDepth = 1 })
	st, resp := submit(t, base, gateSpec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	waitState(t, base, st.ID, JobRunning)
	if _, resp := submit(t, base, gateSpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("queued submit: %d", resp.StatusCode)
	}
	_, resp = submit(t, base, gateSpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// Cancellation: a gated running job cancels, its state persists, and a
// second cancel is a 409.
func TestServerCancel(t *testing.T) {
	resetGate()
	defer releaseGate()
	gateSpec := `{"name":"gated-cancel","experiments":["serve-gate"],"seeds":[1,2]}`
	s, base := newTestServer(t, nil)
	st, resp := submit(t, base, gateSpec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, base, st.ID, JobRunning)
	cresp, err := http.Post(base+"/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", cresp.StatusCode)
	}
	releaseGate() // free the in-flight task so the drain completes
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := s.store.Get(st.ID)
		if j.State() == JobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", j.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cresp2, err := http.Post(base+"/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp2.Body.Close()
	if cresp2.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: %d, want 409", cresp2.StatusCode)
	}
	rresp, err := http.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: %d, want 409", rresp.StatusCode)
	}
}

// Health grading: a fresh server is healthy; a sweep of failing tasks
// drives it unhealthy (503 on the probe); metrics expose the damage.
func TestServerHealthAndMetrics(t *testing.T) {
	s, base := newTestServer(t, nil)
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var rep HealthReport
	json.NewDecoder(hresp.Body).Decode(&rep)
	hresp.Body.Close()
	if hresp.StatusCode != 200 || rep.Status != Healthy {
		t.Fatalf("fresh server: %d %+v", hresp.StatusCode, rep)
	}

	failSpec := `{"name":"all-fail","experiments":["serve-fail"],"seeds":[1,2,3,4,5,6]}`
	st, resp := submit(t, base, failSpec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, base, st.ID, JobCompleted)

	hresp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	rep = HealthReport{}
	json.NewDecoder(hresp.Body).Decode(&rep)
	hresp.Body.Close()
	if hresp.StatusCode != 503 || rep.Status != Unhealthy {
		t.Fatalf("after all-fail sweep: %d %+v, want 503 unhealthy", hresp.StatusCode, rep)
	}
	if rep.FailureRate != 1 {
		t.Fatalf("failure rate %g, want 1", rep.FailureRate)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	json.NewDecoder(mresp.Body).Decode(&snap)
	mresp.Body.Close()
	if snap.TasksRun != 6 || snap.TasksFailed != 6 {
		t.Fatalf("metrics = %+v, want 6 run / 6 failed", snap)
	}
	if snap.JobsSubmitted != 1 || snap.JobsCompleted != 1 {
		t.Fatalf("metrics = %+v, want 1 submitted / 1 completed", snap)
	}
	if len(snap.TaskLatency) != 1 || snap.TaskLatency[0].Experiment != "serve-fail" || snap.TaskLatency[0].Count != 6 {
		t.Fatalf("latency rows = %+v", snap.TaskLatency)
	}
	_ = s
}

// Unknown job IDs are 404s everywhere.
func TestServerUnknownJob(t *testing.T) {
	_, base := newTestServer(t, nil)
	for _, path := range []string{"/jobs/job-999999", "/jobs/job-999999/stream", "/jobs/job-999999/result"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, resp.StatusCode)
		}
	}
}

// The jobs listing carries every job in creation order.
func TestServerListJobs(t *testing.T) {
	_, base := newTestServer(t, nil)
	var ids []string
	for i := 0; i < 3; i++ {
		spec := fmt.Sprintf(`{"name":"list-%d","experiments":["serve-det"],"seeds":[%d]}`, i, i+1)
		st, resp := submit(t, base, spec)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	resp, err := http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 3 {
		t.Fatalf("listing has %d jobs, want 3", len(listing.Jobs))
	}
	for i, st := range listing.Jobs {
		if st.ID != ids[i] {
			t.Fatalf("listing[%d] = %s, want %s", i, st.ID, ids[i])
		}
	}
}
