package experiment

import (
	"bytes"
	"testing"
)

// TestSameProcessRerunByteIdentical runs the quick experiments that
// drive the Tor and bot code twice in one process at one seed and
// byte-compares their JSON. Any state that outlives a run (a buffer
// freelist or memo held in a package variable, say) shows up as a
// second run that differs from the first.
func TestSameProcessRerunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five protocol experiments twice")
	}
	run := func() []byte {
		var tasks []Task
		for _, id := range []string{"fig7", "hsdir", "hsdir-outage", "relay-outage", "churn-hotlist"} {
			tasks = append(tasks, Task{Label: id, Experiment: id, Params: Params{Quick: true, Seed: 1}})
		}
		trs, err := (&Runner{Parallel: 1}).Run(tasks)
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
	if first, second := run(), run(); !bytes.Equal(first, second) {
		t.Fatalf("second run in the same process differs from the first (%d vs %d bytes)", len(first), len(second))
	}
}
