package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"onionbots/internal/ddsr"
	"onionbots/internal/graph"
	"onionbots/internal/sim"
)

// A timed-out task is retried MaxTaskRetries times, every abandoned
// attempt is counted, and the task still fails when the budget runs dry
// — without failing the run.
func TestRunnerRetriesAndAbandonAccounting(t *testing.T) {
	r := &Runner{TaskTimeout: time.Nanosecond, MaxTaskRetries: 2}
	trs, err := r.Run([]Task{{Label: "slow", Experiment: "hsdir-outage", Params: Params{Quick: true, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if trs[0].Err == nil || !strings.Contains(trs[0].Err.Error(), "timed out") {
		t.Fatalf("expected timeout error, got %v", trs[0].Err)
	}
	c := r.Counts()
	want := Counts{Attempts: 3, Completed: 0, Failed: 1, Retried: 2, Abandoned: 3}
	if c != want {
		t.Fatalf("counts = %+v, want %+v", c, want)
	}
}

// Deterministic failures (unknown experiment, experiment errors) are
// not retried: they would fail identically, so the budget is reserved
// for transient panics and timeouts.
func TestRunnerDoesNotRetryDeterministicErrors(t *testing.T) {
	r := &Runner{MaxTaskRetries: 3}
	trs, err := r.Run([]Task{{Label: "bad", Experiment: "no-such-exp", Params: Params{Quick: true, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if trs[0].Err == nil {
		t.Fatal("expected unknown-experiment error")
	}
	c := r.Counts()
	if c.Attempts != 1 || c.Retried != 0 || c.Failed != 1 {
		t.Fatalf("counts = %+v, want exactly one unretried attempt", c)
	}
}

// Successful tasks land in Completed and never consume retries.
func TestRunnerCountsCompleted(t *testing.T) {
	r := &Runner{Parallel: 2, MaxTaskRetries: 1}
	trs, err := r.Run(fastTasks(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		if tr.Err != nil {
			t.Fatalf("%s: %v", tr.Task.Label, tr.Err)
		}
	}
	c := r.Counts()
	if c.Completed != int64(len(trs)) || c.Failed != 0 || c.Retried != 0 || c.Abandoned != 0 {
		t.Fatalf("counts = %+v, want %d clean completions", c, len(trs))
	}
}

// A pre-closed stop channel drains the run before any task starts; a
// nil one is exactly Run.
func TestRunnerStoppable(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	tasks := fastTasks(1)
	results, ran, err := (&Runner{Parallel: 2}).RunStoppable(tasks, stop)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(tasks) || len(ran) != len(tasks) {
		t.Fatalf("got %d results / %d ran flags for %d tasks", len(results), len(ran), len(tasks))
	}
	started := 0
	for _, r := range ran {
		if r {
			started++
		}
	}
	// Workers may have grabbed at most Parallel tasks before the stop
	// select won; with a pre-closed channel the dispatcher races the
	// workers, so allow the worker-count worst case but not a full run.
	if started > 2 {
		t.Fatalf("%d tasks started after stop, want at most the worker count (2)", started)
	}
	for i, r := range ran {
		if !r && results[i].Task.Label != "" {
			t.Fatalf("unran slot %d holds a result", i)
		}
	}

	results, ran, err = (&Runner{Parallel: 4}).RunStoppable(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if !ran[i] {
			t.Fatalf("task %d skipped with nil stop channel", i)
		}
		if results[i].Err != nil {
			t.Fatalf("%s: %v", results[i].Task.Label, results[i].Err)
		}
	}
}

// Mid-run stop: tasks completed before the stop are intact and flagged,
// and the runner returns without executing the full set. The stop fires
// from the Progress hook, which is exactly how serve-mode cancellation
// uses it.
func TestRunnerStoppableMidRun(t *testing.T) {
	stop := make(chan struct{})
	var stopped bool
	r := &Runner{Parallel: 1, Progress: func(done, total int, tr TaskResult) {
		if done == 2 && !stopped {
			stopped = true
			close(stop)
		}
	}}
	tasks := fastTasks(1)
	results, ran, err := r.RunStoppable(tasks, stop)
	if err != nil {
		t.Fatal(err)
	}
	started := 0
	for i := range ran {
		if ran[i] {
			started++
			if results[i].Err != nil {
				t.Fatalf("%s: %v", results[i].Task.Label, results[i].Err)
			}
		}
	}
	// Serial worker: two tasks completed, and at most one more was
	// already dispatched when the stop channel closed.
	if started < 2 || started > 3 {
		t.Fatalf("%d tasks started, want 2 or 3 (stop after the second)", started)
	}
	if started == len(tasks) {
		t.Fatal("stop did not prevent the full run")
	}
}

// A panic inside one fan-out cell reaches runTask's recover on the task
// goroutine: the task fails with the lowest-index cell's panic, every
// cell still runs to the end, and the test binary keeps running.
func TestRunnerRecoversFanOutCellPanic(t *testing.T) {
	const id = "test-fanout-panic"
	finished := make([]bool, 4)
	Register(Definition{ID: id, Title: "panics in two of four fan-out cells", Run: func(Params) ([]*Result, error) {
		fanOut(len(finished), func(i int) {
			defer func() { finished[i] = true }()
			if i >= 2 {
				panic(fmt.Sprintf("cell %d exploded", i))
			}
		})
		return nil, nil
	}})
	t.Cleanup(func() {
		registryMu.Lock()
		delete(registry, id)
		registryMu.Unlock()
	})
	r := &Runner{}
	trs, err := r.Run([]Task{{Label: "boom", Experiment: id, Params: Params{Quick: true, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if trs[0].Err == nil || !strings.Contains(trs[0].Error, "panicked: cell 2 exploded") {
		t.Fatalf("task error = %v, want the panic of cell 2", trs[0].Err)
	}
	for i, ok := range finished {
		if !ok {
			t.Fatalf("cell %d did not run to the end", i)
		}
	}
	if c := r.Counts(); c.Failed != 1 || c.Completed != 0 {
		t.Fatalf("counts = %+v, want one failed task", c)
	}
}

// panicAt is a Maintainer that panics on its at-th deletion.
type panicAt struct {
	ddsr.Maintainer
	at, removed int
}

func (p *panicAt) RemoveNode(id int) {
	if p.removed++; p.removed == p.at {
		panic("deletion failed")
	}
	p.Maintainer.RemoveNode(id)
}

// A panic on Fig 5's deleting goroutine closes the snapshot hand-off,
// so the measuring goroutine ends and the panic reaches the caller
// instead of deadlocking the variant.
func TestFig5VariantDeletionPanicReachesCaller(t *testing.T) {
	cfg := Fig5Config{N: 200, K: 6, MeasureEvery: 20, DiameterSweeps: 2, Seed: 1}
	g, err := graph.RandomRegular(cfg.N, cfg.K, sim.NewRNG(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if p := recover(); p != "deletion failed" {
			t.Fatalf("recovered %v, want the deletion panic", p)
		}
	}()
	fig5Variant(cfg, "Normal", &panicAt{Maintainer: ddsr.NewNormal(g), at: 50})
	t.Fatal("fig5Variant returned despite the panic")
}
