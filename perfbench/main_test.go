package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"onionbots/internal/experiment"
)

// toyWorkload is a workload over inputs input seeds whose iterations
// cost nothing; digest gives the digest of the i-th iteration, counted
// from 1, on an input seed.
func toyWorkload(inputs int, digest func(seed uint64, i int) string) *workload {
	i := 0
	return &workload{
		name:   "toy",
		inputs: inputs,
		setup: func(seed uint64, _ *tracer) (iteration, error) {
			return func(tr *tracer) (outcome, error) {
				tr.add("task_s.fig3", 0.5)
				i++
				return outcome{digest: digest(seed, i), attempted: 3}, nil
			}, nil
		},
	}
}

func bySeed(seed uint64, _ int) string { return fmt.Sprint(seed) }

func TestMeasureChecksDigestsPerInputSeed(t *testing.T) {
	rec, err := measure(toyWorkload(3, bySeed), 1, 0, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Three input seeds, then back to the first.
	if rec.Iterations != 4 || rec.Attempted != 12 || rec.Failed != 0 || len(rec.Errors) != 0 {
		t.Errorf("steady workload: %+v", rec)
	}
	if len(rec.Digests) != 3 || rec.Digests[0] != "1" || rec.InputSeeds[0] != 1 {
		t.Errorf("digests %v for input seeds %v; want the workload seed first", rec.Digests, rec.InputSeeds)
	}
	if got := len(rec.Metrics); got != len(endToEnd) {
		t.Errorf("untraced run reported %d metrics, want %d", got, len(endToEnd))
	}

	rec, err = measure(toyWorkload(1, func(_ uint64, i int) string { return strings.Repeat("x", i) }), 1, 0, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 3 || len(rec.Errors) != 1 || rec.FailFrac != 0.5 {
		t.Errorf("diverging second iteration not failed: %+v", rec)
	}
}

func TestMeasureTracedReportsEveryPerLayerMetric(t *testing.T) {
	rec, err := measure(toyWorkload(1, bySeed), 1, 0, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Iterations != 3 || len(rec.Errors) != 0 {
		t.Errorf("traced run: %+v", rec)
	}
	if len(rec.Metrics) != len(perLayer) {
		t.Errorf("traced run reported %d metrics, want %d", len(rec.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := rec.Metrics[d.name]; !ok {
			t.Errorf("missing per-layer metric %s", d.name)
		}
	}
	if got := rec.Metrics["task_s.fig3"].Value; got != 0.5 {
		t.Errorf("task_s.fig3 = %v, want the traced iteration's 0.5", got)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "repro-quick", "--trace", "2"},
		{"--workload", "repro-quick", "--seconds", "0"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code == 0 || stdout.Len() > 0 {
			t.Errorf("run(%q) = %d with output %q; want non-zero and none", args, code, stdout.String())
		}
	}
}

func TestExperimentIDsMatchRegistry(t *testing.T) {
	if got := experiment.IDs(); !reflect.DeepEqual(got, experimentIDs) {
		t.Errorf("registry %v, benchmark reports task_s for %v", got, experimentIDs)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the repository's
// BENCHMARK.json in step with the metrics this program prints.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, c := range []struct {
		json []def
		code []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		var want []def
		for _, d := range c.code {
			want = append(want, def{d.name, d.unit, d.better})
		}
		if !reflect.DeepEqual(c.json, want) {
			t.Errorf("BENCHMARK.json lists\n%v\nprogram prints\n%v", c.json, want)
		}
	}
}
