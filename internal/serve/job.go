package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"onionbots/internal/experiment"
)

// JobState is a job's lifecycle position. Queued and Running jobs are
// resumable: a process that dies (or drains on SIGTERM) leaves them on
// disk with their checkpoint journal, and the next server start picks
// them back up. The terminal states are Completed (result.json written;
// per-task failures land in the aggregate's error rows, they do not
// fail the job), Failed (infrastructure failure: corrupt journal,
// journal/spec mismatch, unwritable disk, a stored spec that no longer
// parses), and Cancelled.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobCompleted || s == JobFailed || s == JobCancelled
}

// Event is one NDJSON line on a job's stream: a task completion (live
// or replayed from the checkpoint journal) or a state transition.
type Event struct {
	Type string `json:"type"` // "task" or "state"
	// Task events.
	Label    string `json:"label,omitempty"`
	Error    string `json:"error,omitempty"`
	Replayed bool   `json:"replayed,omitempty"`
	Done     int    `json:"done,omitempty"`
	Total    int    `json:"total,omitempty"`
	// ElapsedMS is the live task's wall-clock duration; zero for
	// replayed records (the journal deliberately stores no timings).
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// State events.
	State JobState `json:"state,omitempty"`
}

// JobStatus is the JSON shape of GET /jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Total int      `json:"total"`
	Done  int      `json:"done"`
	// FailedTasks counts grid points whose result is an error row. The
	// job still completes; this is the "how much of my sweep is usable"
	// number.
	FailedTasks int    `json:"failed_tasks"`
	Error       string `json:"error,omitempty"`
}

// subscriber buffers events for one stream reader. A reader that falls
// more than cap(ch) events behind is dropped (lagged=true) rather than
// allowed to stall the executor; the journal and result file remain the
// durable record.
type subscriber struct {
	ch     chan Event
	lagged bool
}

// Job is one submitted sweep: its parsed spec, its on-disk directory
// (spec.json, journal.jsonl, state.json, result.json), and its live
// progress fan-out.
type Job struct {
	ID   string
	Spec *experiment.Sweep
	dir  string

	mu          sync.Mutex
	state       JobState
	errMsg      string
	total       int
	done        int
	failedTasks int
	events      []Event
	subs        map[*subscriber]struct{}
	cancel      chan struct{}
	cancelOnce  sync.Once
}

// persistedState is the state.json shape — tiny and rewritten
// atomically on every transition, so a crashed process knows on restart
// which jobs were in flight.
type persistedState struct {
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
}

func (j *Job) journalPath() string { return filepath.Join(j.dir, "journal.jsonl") }
func (j *Job) resultPath() string  { return filepath.Join(j.dir, "result.json") }
func (j *Job) statePath() string   { return filepath.Join(j.dir, "state.json") }
func (j *Job) specPath() string    { return filepath.Join(j.dir, "spec.json") }

// Status snapshots the job for the status endpoint.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.ID, State: j.state, Total: j.total, Done: j.done,
		FailedTasks: j.failedTasks, Error: j.errMsg,
	}
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel moves a non-terminal job to Cancelled and wakes the executor
// valve. Safe to call repeatedly; returns false if the job was already
// terminal.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.mu.Unlock()
	// Persist first so a crash right after still remembers the cancel,
	// then flip the in-memory state and close the valve.
	j.setState(JobCancelled, "")
	j.cancelOnce.Do(func() { close(j.cancel) })
	return true
}

// cancelled returns the channel the executor merges into its stop
// valve.
func (j *Job) cancelled() <-chan struct{} { return j.cancel }

// setState persists and broadcasts a state transition. Persist errors
// are deliberately non-fatal at this layer: the in-memory transition
// still happens (a running server must keep serving truth), and the
// executor surfaces disk trouble through job failure paths.
func (j *Job) setState(st JobState, errMsg string) {
	data, _ := json.Marshal(persistedState{State: st, Error: errMsg})
	_ = atomicWrite(j.statePath(), append(data, '\n'))
	j.mu.Lock()
	j.state = st
	j.errMsg = errMsg
	j.mu.Unlock()
	j.publish(Event{Type: "state", State: st, Error: errMsg})
}

// taskDone records one task completion (live or replayed) and fans it
// out to stream subscribers.
func (j *Job) taskDone(label, errStr string, replayed bool, elapsedMS float64) {
	j.mu.Lock()
	j.done++
	if errStr != "" {
		j.failedTasks++
	}
	done, total := j.done, j.total
	j.mu.Unlock()
	j.publish(Event{
		Type: "task", Label: label, Error: errStr, Replayed: replayed,
		Done: done, Total: total, ElapsedMS: elapsedMS,
	})
}

// publish appends to the event history and offers the event to every
// subscriber without ever blocking the executor.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, ev)
	//onionlint:allow maporder -- fan-out to independent subscribers; each one sees the same events in history order regardless of delivery order
	for s := range j.subs {
		select {
		case s.ch <- ev:
		default:
			s.lagged = true
			delete(j.subs, s)
			close(s.ch)
		}
	}
}

// Subscribe returns the event history so far plus a channel of
// subsequent events. The channel closes when the subscriber lags
// hopelessly; callers detect job completion from terminal state events,
// and must call the returned unsubscribe function when done.
func (j *Job) Subscribe() (history []Event, ch <-chan Event, unsubscribe func()) {
	s := &subscriber{ch: make(chan Event, 4096)}
	j.mu.Lock()
	history = append([]Event(nil), j.events...)
	if j.subs == nil {
		j.subs = make(map[*subscriber]struct{})
	}
	j.subs[s] = struct{}{}
	j.mu.Unlock()
	return history, s.ch, func() {
		j.mu.Lock()
		if _, live := j.subs[s]; live {
			delete(j.subs, s)
			close(s.ch)
		}
		j.mu.Unlock()
	}
}

// Store manages the jobs directory: one subdirectory per job, scanned
// on startup so queued and running jobs survive the process.
type Store struct {
	dir string

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
}

// OpenStore opens (creating if needed) the jobs directory and loads
// every job recorded in it.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs dir: %w", err)
	}
	s := &Store{dir: dir, jobs: make(map[string]*Job), nextID: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "job-") {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		j, err := s.load(id)
		if err != nil {
			return nil, err
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
	}
	return s, nil
}

// load rebuilds one job from its directory: spec, persisted state, and
// completed-task count replayed from the journal.
func (s *Store) load(id string) (*Job, error) {
	j := &Job{ID: id, dir: filepath.Join(s.dir, id), cancel: make(chan struct{}), state: JobQueued}
	specBytes, err := os.ReadFile(j.specPath())
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", id, err)
	}
	spec, specErr := experiment.ParseSweep(specBytes)
	if specErr == nil {
		j.Spec = spec
		if tasks, err := spec.Tasks(); err == nil {
			j.total = len(tasks)
		}
	}
	if data, err := os.ReadFile(j.statePath()); err == nil {
		var ps persistedState
		if err := json.Unmarshal(data, &ps); err == nil && ps.State != "" {
			j.state = ps.State
			j.errMsg = ps.Error
		}
	}
	// A job found in Running state died mid-run; it resumes from its
	// journal, so present it as queued again.
	if j.state == JobRunning {
		j.state = JobQueued
	}
	// A spec an older, more lenient parser accepted may fail today's
	// checks. Such a job cannot run, so an unfinished one is failed; a
	// finished one keeps its state and result. Either way the rest of
	// the directory loads, and the files stay as written.
	if specErr != nil && !j.state.Terminal() {
		j.state, j.errMsg = JobFailed, fmt.Sprintf("stored spec no longer parses: %v", specErr)
	}
	switch {
	case j.state == JobCompleted && j.Spec != nil:
		j.done = j.total
	case j.state == JobCompleted, j.state == JobQueued:
		if replayed, _, err := ReplayJournal(j.journalPath()); err == nil {
			j.done = len(replayed)
			for _, tr := range replayed {
				if tr.Error != "" {
					j.failedTasks++
				}
			}
		}
		if j.Spec == nil {
			j.total = j.done
		}
	}
	if j.state.Terminal() {
		j.cancelOnce.Do(func() { close(j.cancel) })
	}
	return j, nil
}

// Create validates a submitted sweep spec, assigns the next job ID, and
// durably records the job (spec bytes fsync'd, state queued) before
// returning — a 201 response means a kill -9 no longer loses the job.
func (s *Store) Create(specBytes []byte) (*Job, error) {
	spec, err := experiment.ParseSweep(specBytes)
	if err != nil {
		return nil, err
	}
	tasks, err := spec.Tasks()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.nextID++
	s.mu.Unlock()

	j := &Job{
		ID: id, Spec: spec, dir: filepath.Join(s.dir, id),
		state: JobQueued, total: len(tasks), cancel: make(chan struct{}),
	}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return nil, fmt.Errorf("create %s: %w", id, err)
	}
	if err := atomicWrite(j.specPath(), specBytes); err != nil {
		return nil, fmt.Errorf("create %s: %w", id, err)
	}
	st, _ := json.Marshal(persistedState{State: JobQueued})
	if err := atomicWrite(j.statePath(), append(st, '\n')); err != nil {
		return nil, fmt.Errorf("create %s: %w", id, err)
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	return j, nil
}

// Get returns the job by ID.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns every job in creation order.
func (s *Store) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Resumable returns the jobs a fresh server start must re-enqueue:
// everything the previous process left non-terminal.
func (s *Store) Resumable() []*Job {
	var out []*Job
	for _, j := range s.List() {
		if !j.State().Terminal() {
			out = append(out, j)
		}
	}
	return out
}

// atomicWrite writes data to path via a same-directory temp file,
// fsyncs, and renames — so readers (including the next process) see the
// old bytes or the new bytes, never a torn file.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
