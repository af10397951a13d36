package experiment

import (
	"bytes"
	"testing"
)

// quickJSON runs the given experiments at their quick preset and one
// seed through the runner and returns the results' JSON document.
func quickJSON(t *testing.T, ids []string, seed uint64, parallel int) []byte {
	t.Helper()
	var tasks []Task
	for _, id := range ids {
		tasks = append(tasks, Task{Label: id, Experiment: id, Params: Params{Quick: true, Seed: seed}})
	}
	trs, err := (&Runner{Parallel: parallel}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	for _, tr := range trs {
		if tr.Err != nil {
			t.Fatalf("%s: %v", tr.Task.Label, tr.Err)
		}
		results = append(results, tr.Results...)
	}
	doc, err := ResultsJSON(results)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSameProcessRerunByteIdentical runs the quick experiments that
// drive the Tor and bot code twice in one process at one seed and
// byte-compares their JSON. Any state that outlives a run (a buffer
// freelist or memo held in a package variable, say) shows up as a
// second run that differs from the first.
func TestSameProcessRerunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five protocol experiments twice")
	}
	ids := []string{"fig7", "hsdir", "hsdir-outage", "relay-outage", "churn-hotlist"}
	if first, second := quickJSON(t, ids, 1, 1), quickJSON(t, ids, 1, 1); !bytes.Equal(first, second) {
		t.Fatalf("second run in the same process differs from the first (%d vs %d bytes)", len(first), len(second))
	}
}

// TestGraphExperimentsRerunByteIdentical is the same guard for the
// experiments built on graph and ddsr: seed 1, then seed 101, then
// seed 1 again, all in one process with tasks running side by side.
// Scratch that outlives a task, or that two concurrent tasks share,
// makes the second seed-1 run differ from the first.
func TestGraphExperimentsRerunByteIdentical(t *testing.T) {
	ids := []string{"fig4", "fig5", "fig6", "ablation", "churn-repair"}
	first := quickJSON(t, ids, 1, 2)
	if other := quickJSON(t, ids, 101, 2); bytes.Equal(first, other) {
		t.Fatal("seeds 1 and 101 gave identical results")
	}
	if again := quickJSON(t, ids, 1, 2); !bytes.Equal(first, again) {
		t.Fatalf("seed 1 rerun after seed 101 differs from the first run (%d vs %d bytes)", len(first), len(again))
	}
}
