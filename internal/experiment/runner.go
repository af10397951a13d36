package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"onionbots/internal/sim"
)

// Task names one experiment invocation: which registered experiment to
// run, under which label, with which parameters. The label doubles as
// the task's RNG substream name — see Runner.
type Task struct {
	// Label uniquely identifies the task within one Runner.Run call
	// ("fig6", "fig6/n=1000/seed=2/trial=0", ...).
	Label string `json:"label"`
	// Experiment is the registry ID to run.
	Experiment string `json:"experiment"`
	// Params are the generic parameters passed to the experiment.
	Params Params `json:"params"`
}

// TaskResult pairs a task with its outcome. Results are positionally
// stable: Runner.Run returns them in task order whatever the worker
// count or completion order was.
type TaskResult struct {
	Task Task `json:"task"`
	// EffectiveSeed is the substream seed the experiment actually ran
	// with: sim.SubstreamSeed(Task.Params.Seed, Task.Label).
	// Feeding it back through Params.Seed with an identical label
	// reproduces the task bit-for-bit.
	EffectiveSeed uint64 `json:"effective_seed"`
	// Results holds the regenerated figures/tables (nil on error).
	Results []*Result `json:"results,omitempty"`
	// Err is the task's failure, if any.
	Err error `json:"-"`
	// Error mirrors Err as a string for JSON output.
	Error string `json:"error,omitempty"`
	// Elapsed is the task's wall-clock duration. It is reported on
	// stderr progress lines only and deliberately excluded from JSON so
	// machine-readable output stays byte-identical across runs.
	Elapsed time.Duration `json:"-"`
}

// Counts is a snapshot of a runner's task accounting, read with
// Runner.Counts. Attempts counts every execution attempt (a task retried
// once contributes two); the remaining fields count terminal outcomes
// plus the two events that never appear in TaskResult on their own:
// Retried, the number of extra attempts granted to panicked or timed-out
// tasks, and Abandoned, the number of timed-out attempts whose goroutine
// was left running to completion in the background with its result
// discarded. Abandoned > 0 means wall-clock budget was spent on work
// nobody collected — the batch CLI and the serve-mode /metrics endpoint
// both surface it so stuck tasks are visible instead of silently leaked.
type Counts struct {
	Attempts  int64 `json:"attempts"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Retried   int64 `json:"retried"`
	Abandoned int64 `json:"abandoned"`
}

// Runner executes experiment tasks across a worker pool with
// deterministic results.
//
// Determinism contract: before invoking an experiment, the runner
// replaces the task's seed with sim.SubstreamSeed(seed, label), giving
// every task an independent random stream that is a pure function of
// (root seed, task label). Experiments are forbidden from consulting
// wall-clock time or shared mutable state, so the rendered output of a
// task set is byte-identical at any Parallel value and any scheduling
// order. Retries preserve the contract: a re-attempted task runs on the
// same substream seed, so whenever it completes it produces the same
// bytes it would have produced the first time.
type Runner struct {
	// Parallel is the worker count. Values below 1 mean serial.
	Parallel int
	// Progress, if set, is called after each task completes, serialized
	// under a lock, with the number of finished tasks so far. It is for
	// stderr reporting and for completion hooks (the serve-mode
	// checkpoint journal appends from it); it must not write to stdout.
	// It fires once per task, after the final attempt, never per retry.
	Progress func(done, total int, tr TaskResult)
	// TaskTimeout, when positive, bounds each task's wall-clock
	// duration: a task still running after the deadline is reported as
	// TaskResult.Err instead of hanging the whole run. Off by default —
	// experiments have no cancellation points, so a timed-out task's
	// goroutine keeps running to completion in the background and its
	// result is discarded (counted in Counts.Abandoned); the timeout is
	// a sweep-survival valve, not a scheduler. Wall-clock bounds are
	// inherently nondeterministic, so never enable this when
	// byte-identical output matters.
	TaskTimeout time.Duration
	// MaxTaskRetries grants each task this many extra attempts when an
	// attempt panics or times out, before the task is marked failed.
	// Deterministic experiment errors are not retried — they would fail
	// identically — so retries only chase transient conditions
	// (wall-clock timeouts under load, allocation panics under memory
	// pressure). One grid point exhausting its budget fails that task
	// only, never the run.
	MaxTaskRetries int
	// TaskRetryBackoff is the sleep before the second attempt, doubled
	// per subsequent attempt. Zero means retry immediately.
	TaskRetryBackoff time.Duration

	attempts  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	retried   atomic.Int64
	abandoned atomic.Int64
}

// Counts returns a snapshot of the runner's task accounting. Counters
// accumulate across Run calls on the same Runner.
func (r *Runner) Counts() Counts {
	return Counts{
		Attempts:  r.attempts.Load(),
		Completed: r.completed.Load(),
		Failed:    r.failed.Load(),
		Retried:   r.retried.Load(),
		Abandoned: r.abandoned.Load(),
	}
}

// Run executes every task and returns one TaskResult per task, in task
// order. Per-task failures (unknown experiment ID, experiment error,
// panic) are reported in TaskResult.Err; Run itself fails only on a
// malformed task set (duplicate labels, which would break the substream
// independence guarantee).
func (r *Runner) Run(tasks []Task) ([]TaskResult, error) {
	results, _, err := r.RunStoppable(tasks, nil)
	return results, err
}

// RunStoppable is Run with a drain valve: when stop is closed, workers
// finish the tasks they already started but pick up no new ones, and
// RunStoppable returns early. The returned ran slice records, in task
// order, which tasks actually executed — results[i] is meaningful only
// where ran[i] is true. A nil stop channel makes it exactly Run. This is
// the hook serve-mode graceful shutdown and job cancellation stand on:
// in-flight grid points drain (and reach the checkpoint journal via
// Progress), unstarted ones are left for the resumed run.
func (r *Runner) RunStoppable(tasks []Task, stop <-chan struct{}) ([]TaskResult, []bool, error) {
	seen := make(map[string]struct{}, len(tasks))
	for _, t := range tasks {
		if _, dup := seen[t.Label]; dup {
			return nil, nil, fmt.Errorf("duplicate task label %q", t.Label)
		}
		seen[t.Label] = struct{}{}
	}

	workers := r.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	results := make([]TaskResult, len(tasks))
	ran := make([]bool, len(tasks))
	idx := make(chan int)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				ran[i] = true
				results[i] = r.runBounded(tasks[i])
				if r.Progress != nil {
					mu.Lock()
					done++
					r.Progress(done, len(tasks), results[i])
					mu.Unlock()
				}
			}
		}()
	}
dispatch:
	for i := range tasks {
		select {
		case idx <- i:
		case <-stop:
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return results, ran, nil
}

// runBounded runs one task under the runner's wall-clock and retry
// budgets. With no TaskTimeout and no retries it is runTask itself —
// same goroutine, no channel.
func (r *Runner) runBounded(t Task) TaskResult {
	for attempt := 0; ; attempt++ {
		tr, transient := r.attemptTask(t)
		if tr.Err == nil {
			r.completed.Add(1)
			return tr
		}
		if !transient || attempt >= r.MaxTaskRetries {
			r.failed.Add(1)
			return tr
		}
		r.retried.Add(1)
		if r.TaskRetryBackoff > 0 {
			//onionlint:allow detclock -- retry backoff paces real re-execution of a crashed task; simulated results never observe it
			time.Sleep(r.TaskRetryBackoff << attempt)
		}
	}
}

// attemptTask makes one execution attempt. transient reports whether the
// failure mode is worth retrying (panic or timeout, as opposed to a
// deterministic experiment error).
func (r *Runner) attemptTask(t Task) (tr TaskResult, transient bool) {
	r.attempts.Add(1)
	if r.TaskTimeout <= 0 {
		tr, transient = runTask(t)
		return tr, transient
	}
	type attempt struct {
		tr        TaskResult
		transient bool
	}
	ch := make(chan attempt, 1)
	go func() {
		tr, transient := runTask(t)
		ch <- attempt{tr, transient}
	}()
	//onionlint:allow detclock -- TaskTimeout bounds real runtime of a wedged task; a timeout abandons the task rather than altering its output
	timer := time.NewTimer(r.TaskTimeout)
	defer timer.Stop()
	select {
	case a := <-ch:
		return a.tr, a.transient
	case <-timer.C:
		r.abandoned.Add(1)
		tr := TaskResult{Task: t, EffectiveSeed: sim.SubstreamSeed(t.Params.Seed, t.Label)}
		tr.Err = fmt.Errorf("task %s timed out after %s", t.Label, r.TaskTimeout)
		tr.Error = tr.Err.Error()
		tr.Elapsed = r.TaskTimeout
		return tr, true
	}
}

func runTask(t Task) (tr TaskResult, panicked bool) {
	//onionlint:allow detclock -- Elapsed is progress/ops telemetry on stderr; the deterministic result document never includes it
	start := time.Now()
	tr = TaskResult{Task: t, EffectiveSeed: sim.SubstreamSeed(t.Params.Seed, t.Label)}
	defer func() {
		if p := recover(); p != nil {
			tr.Err = fmt.Errorf("task %s panicked: %v", t.Label, p)
			panicked = true
		}
		if tr.Err != nil {
			tr.Error = tr.Err.Error()
			tr.Results = nil
		}
		//onionlint:allow detclock -- wall-clock half of the same telemetry measurement
		tr.Elapsed = time.Since(start)
	}()
	def, ok := Lookup(t.Experiment)
	if !ok {
		tr.Err = fmt.Errorf("unknown experiment %q", t.Experiment)
		return tr, false
	}
	p := t.Params
	p.Seed = tr.EffectiveSeed
	tr.Results, tr.Err = def.Run(p)
	return tr, false
}
