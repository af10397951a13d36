// Package serve turns the batch sweep engine into a long-running
// simulation service: submit sweep specs as jobs over HTTP, stream
// per-task progress as NDJSON, and read results when they land. Every
// completed grid point is checkpointed to an fsync'd append-only
// journal before the server acknowledges it, so a kill -9 (or a
// graceful SIGTERM drain) costs at most the tasks in flight — the next
// server start replays the journal and reruns only the missing labels,
// and because every label runs on its own deterministic RNG substream,
// the resumed job's final document is byte-identical to an
// uninterrupted run. Admission control (token bucket + bounded queue,
// 429 with Retry-After), a graded /healthz (healthy / degraded /
// unhealthy from recent failure and timeout rates), and atomic-counter
// /metrics make it a production citizen rather than a CLI in a loop.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"time"
)

// Config parameterizes a Server. Zero values select the documented
// defaults.
type Config struct {
	// Addr is the listen address ("127.0.0.1:8080", ":8080"; ":0"
	// picks a free port, see Server.Addr).
	Addr string
	// JobsDir is the persistence root: one subdirectory per job holding
	// spec.json, journal.jsonl, state.json, and result.json.
	JobsDir string
	// Parallel is the per-job worker count (default 1).
	Parallel int
	// QueueDepth bounds jobs admitted but not yet finished (default 8);
	// submissions beyond it get 429 + Retry-After.
	QueueDepth int
	// SubmitBurst and SubmitPerSec shape the token-bucket admission
	// throttle (defaults: burst 8, 1 submission/second refill).
	SubmitBurst  float64
	SubmitPerSec float64
	// TaskTimeout, TaskRetries and TaskRetryBackoff configure per-task
	// resilience: a panicked or timed-out grid point is retried
	// TaskRetries times (backoff doubling from TaskRetryBackoff) before
	// its error row lands in the aggregate. Failure of one point never
	// fails the job.
	TaskTimeout      time.Duration
	TaskRetries      int
	TaskRetryBackoff time.Duration
	// MaxSpecBytes bounds a submitted spec (default 1 MiB).
	MaxSpecBytes int64
	// Logf receives operational log lines (default: stderr).
	Logf func(format string, args ...any)
}

// Server is the simulation-as-a-service front end.
type Server struct {
	cfg      Config
	store    *Store
	exec     *Executor
	metrics  *Metrics
	health   *HealthTracker
	bucket   *TokenBucket
	mux      *http.ServeMux
	shutdown chan struct{}

	ln net.Listener
}

// New opens the jobs directory, re-enqueues every job the previous
// process left unfinished, and returns a server ready to Run.
func New(cfg Config) (*Server, error) {
	if cfg.JobsDir == "" {
		return nil, fmt.Errorf("serve: JobsDir is required")
	}
	if cfg.Parallel < 1 {
		cfg.Parallel = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 8
	}
	if cfg.SubmitBurst <= 0 {
		cfg.SubmitBurst = 8
	}
	if cfg.SubmitPerSec <= 0 {
		cfg.SubmitPerSec = 1
	}
	if cfg.MaxSpecBytes <= 0 {
		cfg.MaxSpecBytes = 1 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "onionsim-serve: "+format+"\n", args...)
		}
	}
	store, err := OpenStore(cfg.JobsDir)
	if err != nil {
		return nil, err
	}
	metrics := &Metrics{}
	health := NewHealthTracker(0, 0)
	resumable := store.Resumable()
	exec := NewExecutor(cfg.QueueDepth+len(resumable), metrics, health, cfg.Logf)
	exec.Parallel = cfg.Parallel
	exec.TaskTimeout = cfg.TaskTimeout
	exec.TaskRetries = cfg.TaskRetries
	exec.TaskRetryBackoff = cfg.TaskRetryBackoff

	s := &Server{
		cfg:      cfg,
		store:    store,
		exec:     exec,
		metrics:  metrics,
		health:   health,
		bucket:   NewTokenBucket(cfg.SubmitBurst, cfg.SubmitPerSec),
		shutdown: make(chan struct{}),
	}
	for _, j := range resumable {
		if exec.Enqueue(j) {
			metrics.JobsResumed.Add(1)
			cfg.Logf("job %s: re-enqueued for resume", j.ID)
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Addr returns the bound listen address once Run has started the
// listener — the way tests (and :0 users) learn the real port.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Handler exposes the route table (httptest hook).
func (s *Server) Handler() http.Handler { return s.mux }

// Run serves until ctx is cancelled (the CLI wires SIGTERM/SIGINT into
// that), then shuts down gracefully: stop accepting connections, drain
// in-flight tasks into the checkpoint journal, park interrupted jobs as
// queued, and return nil so the process exits 0. Jobs still unfinished
// simply resume on the next start.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	s.exec.Start()
	srv := &http.Server{Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	s.cfg.Logf("listening on %s (jobs dir %s, parallel %d)", s.Addr(), s.cfg.JobsDir, s.cfg.Parallel)

	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	s.cfg.Logf("shutting down: draining in-flight tasks")
	close(s.shutdown) // unblocks live NDJSON streams
	s.exec.Shutdown() // drains + checkpoints, parks interrupted jobs
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	s.cfg.Logf("shutdown complete")
	return nil
}

// writeJSON emits one JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// handleSubmit admits one sweep spec as a job: token bucket first, then
// queue capacity, then spec validation — both admission failures answer
// 429 with a Retry-After the client can follow blindly.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if ok, retryAfter := s.bucket.Take(); !ok {
		s.metrics.JobsRejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(retryAfter.Seconds()))))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: fmt.Sprintf("submission rate limited; retry in %s", retryAfter.Round(time.Millisecond))})
		return
	}
	if depth := s.metrics.QueueDepth.Load(); depth >= int64(s.cfg.QueueDepth) {
		s.metrics.JobsRejected.Add(1)
		w.Header().Set("Retry-After", "30")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: fmt.Sprintf("job queue saturated (%d queued)", depth)})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxSpecBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("read spec: %v", err)})
		return
	}
	if int64(len(body)) > s.cfg.MaxSpecBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("spec exceeds %d bytes", s.cfg.MaxSpecBytes)})
		return
	}
	j, err := s.store.Create(body)
	if err != nil {
		// The jsonx-described message names the offending field and
		// line, so a typo'd grid file debugs itself from the 400 body.
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// The 201 reports the job as admitted. Snapshot it before Enqueue:
	// an idle executor may start the job before this handler writes.
	admitted := j.Status()
	if !s.exec.Enqueue(j) {
		s.metrics.JobsRejected.Add(1)
		j.setState(JobFailed, "job queue saturated at admission")
		w.Header().Set("Retry-After", "30")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "job queue saturated"})
		return
	}
	s.metrics.JobsSubmitted.Add(1)
	s.cfg.Logf("job %s: submitted (%s, %d tasks)", j.ID, j.Spec.Name, admitted.Total)
	writeJSON(w, http.StatusCreated, admitted)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.List()
	statuses := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.Status())
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: statuses})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown job %q", r.PathValue("id"))})
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// handleStream replays the job's event history, then follows live
// events as NDJSON — one JSON object per line, flushed per event —
// until the job reaches a terminal state, the client goes away, or the
// server shuts down.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	history, ch, unsubscribe := j.Subscribe()
	defer unsubscribe()
	emit := func(ev Event) (terminal bool) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
		return ev.Type == "state" && ev.State.Terminal()
	}
	for _, ev := range history {
		if emit(ev) {
			return
		}
	}
	if j.State().Terminal() {
		// The job went terminal before (or while) we subscribed, but no
		// terminal event sat in the history — either the history
		// predates this process (a job loaded from disk) or the closing
		// events are still in our channel. Drain what is buffered, then
		// synthesize the closing state line if it never arrived.
		for {
			select {
			case ev, open := <-ch:
				if !open {
					return
				}
				if emit(ev) {
					return
				}
			default:
				emit(Event{Type: "state", State: j.State()})
				return
			}
		}
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return // lagged subscriber, dropped
			}
			if emit(ev) {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			return
		}
	}
}

// handleResult serves the finished job's result document — the exact
// bytes an uninterrupted `onionsim -sweep <spec> -json` run prints.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.Status()
	if st.State != JobCompleted {
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("job %s is %s, result exists only for completed jobs", j.ID, st.State)})
		return
	}
	data, err := os.ReadFile(j.resultPath())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("read result: %v", err)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if !j.Cancel() {
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("job %s already %s", j.ID, j.State())})
		return
	}
	s.cfg.Logf("job %s: cancel requested", j.ID)
	writeJSON(w, http.StatusOK, j.Status())
}

// handleHealthz reports the graded health value object; load balancers
// get 503 only when Unhealthy.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rep := s.health.Eval()
	writeJSON(w, rep.Status.HTTPStatus(), rep)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}
