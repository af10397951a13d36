package experiment

import (
	"strings"
	"testing"
	"time"

	"onionbots/internal/churn"
)

// The headline shape claim of the fault plane: under a targeted 30%
// HSDir outage, a retry budget buys back a measurable share of C&C
// reachability inside the outage window, while single-attempt clients
// go dark. The margin is generous (0.25) because the claim is about
// the mechanism, not a precise rate.
func TestHSDirOutageRetriesBeatNoRetry(t *testing.T) {
	withRetry := DefaultHSDirOutageConfig(true)
	r1, err := RunHSDirOutage(withRetry)
	if err != nil {
		t.Fatalf("with retry: %v", err)
	}
	noRetry := DefaultHSDirOutageConfig(true)
	noRetry.Spec.RetryAttempts = 1
	noRetry.Spec.RetryBackoffS = 0
	r0, err := RunHSDirOutage(noRetry)
	if err != nil {
		t.Fatalf("no retry: %v", err)
	}

	reach := func(r *Result, name string) float64 {
		s := r.SeriesByName(name)
		if s == nil || len(s.Points) == 0 {
			t.Fatalf("%s: missing series %q", r.ID, name)
		}
		return s.Points[0].Y
	}
	r1win := reach(r1, "outage-window-reachability")
	r0win := reach(r0, "outage-window-reachability")
	if r1win < r0win+0.25 {
		t.Fatalf("retry budget bought nothing: with retry %.3f, without %.3f", r1win, r0win)
	}
	// The self-healing floor: once the consensus drops the dead
	// directories and the service republishes, even single-attempt
	// clients reach the C&C again — retries only bridge the window.
	if fin := reach(r0, "final-reachability"); fin < 1 {
		t.Fatalf("no-retry run never healed: final reachability %.3f", fin)
	}
	if fin := reach(r1, "final-reachability"); fin < 1 {
		t.Fatalf("retry run never healed: final reachability %.3f", fin)
	}
}

// A targeted outage must actually darken the window for single-attempt
// clients — otherwise the shape test above is vacuous.
func TestHSDirOutageTargetedWaveDarkensWindow(t *testing.T) {
	cfg := DefaultHSDirOutageConfig(true)
	cfg.Spec.RetryAttempts = 1
	cfg.Spec.RetryBackoffS = 0
	r, err := RunHSDirOutage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if win := r.SeriesByName("outage-window-reachability").Points[0].Y; win > 0.2 {
		t.Fatalf("targeted 30%% outage barely registered: window reachability %.3f", win)
	}
	hs := r.SeriesByName("hsdirs")
	min := hs.Points[0].Y
	for _, p := range hs.Points {
		if p.Y < min {
			min = p.Y
		}
	}
	if min >= hs.Points[0].Y {
		t.Fatalf("hsdir series never dipped: %v", hs.Points)
	}
}

// relay-outage must compose infrastructure faults with membership
// churn on one scheduler and stay deterministic doing it.
func TestRelayOutageComposesWithChurn(t *testing.T) {
	cfg := DefaultRelayOutageConfig(true)
	cfg.Duration = 6 * time.Hour
	cfg.Churn = &churn.Spec{Process: "poisson", Join: 1, Leave: 1}
	run := func() *Result {
		r, err := RunRelayOutage(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(), run()
	if r1.Render() != r2.Render() {
		t.Fatalf("relay-outage with churn not deterministic:\n%s\n---\n%s", r1.Render(), r2.Render())
	}
	notes := strings.Join(r1.Notes, "\n")
	if !strings.Contains(notes, "churn") || !strings.Contains(notes, "faults") {
		t.Fatalf("composition notes missing fault/churn counts:\n%s", notes)
	}
	for _, name := range []string{"relays", "alive", "component-frac", "reachability", "non-quality"} {
		if r1.SeriesByName(name) == nil {
			t.Fatalf("missing series %q", name)
		}
	}
}

// The faults sweep axis: parse, validation, labels, threshold wiring,
// and byte-identical output across worker counts.
func TestSweepFaultsAxis(t *testing.T) {
	spec := []byte(`{
		"name": "faults-grid",
		"experiments": ["hsdir-outage"],
		"quick": true,
		"faults": [
			{"outage_frac": 0.3, "outage_at_h": 2, "outage_targeted": true, "retry_attempts": 1},
			{"outage_frac": 0.3, "outage_at_h": 2, "outage_targeted": true, "retry_attempts": 4, "retry_backoff_s": 1800}
		],
		"thresholds": [
			{"series": "outage-window-reachability", "axis": "faults", "above": 0.5}
		]
	}`)
	s, err := ParseSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := s.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatalf("expected 2 tasks, got %d", len(tasks))
	}
	for i, task := range tasks {
		if !strings.Contains(task.Label, "/faults=faults;outage=0.3") {
			t.Fatalf("task %d label missing faults component: %q", i, task.Label)
		}
		if task.Params.Faults == nil {
			t.Fatalf("task %d has no faults spec", i)
		}
	}

	var renders []string
	for _, parallel := range []int{1, 4} {
		trs, err := (&Runner{Parallel: parallel}).Run(tasks)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trs {
			if tr.Err != nil {
				t.Fatalf("task %s: %v", tr.Task.Label, tr.Err)
			}
		}
		renders = append(renders, s.Aggregate(trs).Render())
	}
	if renders[0] != renders[1] {
		t.Fatalf("faults-axis sweep differs across parallelism:\n%s\n---\n%s", renders[0], renders[1])
	}
	if !strings.Contains(renders[0], "(threshold)") {
		t.Fatalf("aggregate missing threshold row:\n%s", renders[0])
	}
}

func TestSweepFaultsAxisValidation(t *testing.T) {
	cases := []struct{ name, spec, wantErr string }{
		{"bad spec",
			`{"experiments":["hsdir-outage"],"faults":[{"outage_frac": 1.5}]}`, "faults[0]: faults: outage_frac 1.5 outside [0, 1]"},
		{"unknown field",
			`{"experiments":["hsdir-outage"],"faults":[{"outage": 0.5}]}`, "unknown field"},
		{"duplicate",
			`{"experiments":["hsdir-outage"],"faults":[{"crash_rate":2},{"crash_rate":2}]}`, "duplicate faults spec"},
		{"threshold unswept",
			`{"experiments":["hsdir-outage"],"thresholds":[{"series":"x","axis":"faults","above":1}]}`, "not swept"},
		{"axis not read",
			`{"experiments":["fig3"],"faults":[{"crash_rate":2}]}`, "no experiment in [fig3] reads the faults axis"},
	}
	for _, c := range cases {
		if _, err := ParseSweep([]byte(c.spec)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

// The runner's wall-clock valve: a task that outlives TaskTimeout is
// reported as an error row instead of hanging the run.
func TestRunnerTaskTimeout(t *testing.T) {
	tasks := []Task{{Label: "slow", Experiment: "hsdir-outage", Params: Params{Quick: true, Seed: 1}}}
	trs, err := (&Runner{TaskTimeout: time.Nanosecond}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if trs[0].Err == nil || !strings.Contains(trs[0].Err.Error(), "timed out") {
		t.Fatalf("expected timeout error, got %v", trs[0].Err)
	}
	// Zero timeout keeps the runner unbounded (and on the fast path).
	trs, err = (&Runner{}).Run([]Task{{Label: "ok", Experiment: "fig3", Params: Params{Quick: true, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if trs[0].Err != nil {
		t.Fatalf("unbounded run failed: %v", trs[0].Err)
	}
}

// Params.Faults must override the experiment presets end to end.
func TestParamsFaultsOverride(t *testing.T) {
	def, ok := Lookup("relay-outage")
	if !ok {
		t.Fatal("relay-outage not registered")
	}
	spec := churn.FaultSpec{CrashRate: 7, RetryAttempts: 2, RetryBackoffS: 30}
	results, err := def.Run(Params{Quick: true, Seed: 3, N: 6, Faults: &spec})
	if err != nil {
		t.Fatal(err)
	}
	notes := strings.Join(results[0].Notes, "\n")
	if !strings.Contains(notes, "crash=7;retry=2;bo=30") {
		t.Fatalf("spec override not honored in notes:\n%s", notes)
	}
}
