package scenario

import (
	"path/filepath"
	"strings"
	"testing"

	"onionbots/internal/churn"
	"onionbots/internal/experiment"
)

// fixture builds synthetic task results over a sweep grid with the
// series value a pure function of the task label — no experiment runs,
// so evaluation mechanics are tested exactly.
func fixture(t *testing.T, s *experiment.Sweep, series string, y func(label string) float64) []experiment.TaskResult {
	t.Helper()
	tasks, err := s.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]experiment.TaskResult, 0, len(tasks))
	for _, task := range tasks {
		trs = append(trs, experiment.TaskResult{Task: task, Results: []*experiment.Result{{
			ID: s.Experiments[0],
			Series: []experiment.Series{
				{Name: series, Points: []experiment.Point{{X: 0, Y: y(task.Label)}}},
			},
		}}})
	}
	return trs
}

// nSweep is the shared numeric fixture: an n axis with the series mean
// rising linearly (y = n/1000), so every crossing and gap is analytic.
func nSweep(trials int) *experiment.Sweep {
	return &experiment.Sweep{
		Name:        "fix",
		Experiments: []string{"fig6"},
		Ns:          []int{100, 200, 300},
		Seeds:       []uint64{1},
		Trials:      trials,
	}
}

func linearY(label string) float64 {
	switch {
	case strings.Contains(label, "/n=100"):
		return 0.1
	case strings.Contains(label, "/n=200"):
		return 0.2
	default:
		return 0.3
	}
}

// TestEvaluateExpectationTable is the satellite table: one (fixture,
// expectation, want status) row per expectation kind, including
// tolerance edges and intervals that exclude the crossing. A FAIL must
// name the offending series or axis value in its detail.
func TestEvaluateExpectationTable(t *testing.T) {
	cases := []struct {
		name       string
		expect     Expectation
		want       string
		wantDetail string // substring the detail must carry
	}{
		// --- monotone ---
		{"monotone increasing passes",
			Expectation{Kind: "monotone", Series: "q", Axis: "n", Direction: "increasing"},
			StatusPass, "increasing"},
		{"monotone decreasing fails naming the step",
			Expectation{Kind: "monotone", Series: "q", Axis: "n", Direction: "decreasing"},
			StatusFail, "n=100→200"},
		{"monotone tolerance edge is inclusive",
			// Each step rises exactly 0.1; a 0.1 tolerance forgives it.
			Expectation{Kind: "monotone", Series: "q", Axis: "n", Direction: "decreasing", Tolerance: 0.1},
			StatusPass, ""},
		{"monotone just under tolerance fails",
			Expectation{Kind: "monotone", Series: "q", Axis: "n", Direction: "decreasing", Tolerance: 0.0999},
			StatusFail, "q"},
		{"monotone unknown series errors",
			Expectation{Kind: "monotone", Series: "ghost", Axis: "n", Direction: "increasing"},
			StatusError, "ghost"},
		{"monotone unswept axis errors",
			Expectation{Kind: "monotone", Series: "q", Axis: "k", Direction: "increasing"},
			StatusError, "not swept"},

		// --- bounded ---
		{"bounded inside passes",
			Expectation{Kind: "bounded", Series: "q", Lo: f(0.1), Hi: f(0.3)},
			StatusPass, "0.2"},
		{"bounded below lo fails",
			Expectation{Kind: "bounded", Series: "q", Lo: f(0.25)},
			StatusFail, "below lo"},
		{"bounded above hi fails",
			Expectation{Kind: "bounded", Series: "q", Hi: f(0.15)},
			StatusFail, "above hi"},
		{"bounded missing series errors",
			Expectation{Kind: "bounded", Series: "ghost", Lo: f(0)},
			StatusError, "ghost"},

		// --- threshold_in ---
		{"threshold_in brackets the analytic crossing",
			// y crosses 0.25 at n = 250 exactly.
			Expectation{Kind: "threshold_in", Series: "q", Axis: "n", Above: f(0.25), Lo: f(240), Hi: f(260)},
			StatusPass, "n≈250"},
		{"threshold_in interval excluding the crossing fails",
			Expectation{Kind: "threshold_in", Series: "q", Axis: "n", Above: f(0.25), Lo: f(100), Hi: f(200)},
			StatusFail, "outside"},
		{"threshold_in never crossed fails",
			Expectation{Kind: "threshold_in", Series: "q", Axis: "n", Above: f(9), Lo: f(100), Hi: f(300)},
			StatusFail, "never crosses"},

		// --- gap ---
		{"gap meets the minimum",
			Expectation{Kind: "gap", Series: "q", Axis: "n", From: 0, To: 2, MinGap: 0.15},
			StatusPass, "0.2"},
		{"gap too small fails naming both axis values",
			Expectation{Kind: "gap", Series: "q", Axis: "n", From: 0, To: 2, MinGap: 0.25},
			StatusFail, "n=100→300"},
		{"gap index out of range errors",
			Expectation{Kind: "gap", Series: "q", Axis: "n", From: 0, To: 7, MinGap: 0.1},
			StatusError, "3 values"},

		// --- ci_excludes ---
		{"ci excludes a far value",
			Expectation{Kind: "ci_excludes", Series: "q", Excludes: f(0.9)},
			StatusPass, "excludes 0.9"},
		{"ci containing the value fails",
			Expectation{Kind: "ci_excludes", Series: "q", Excludes: f(0.2)},
			StatusFail, "contains 0.2"},
	}
	s := nSweep(2)
	trs := fixture(t, s, "q", linearY)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Evaluate(s, trs, []Expectation{tc.expect})[0]
			if got.Status != tc.want {
				t.Fatalf("status = %s (%s), want %s", got.Status, got.Detail, tc.want)
			}
			if !strings.Contains(got.Detail, tc.wantDetail) {
				t.Fatalf("detail %q does not mention %q", got.Detail, tc.wantDetail)
			}
		})
	}
}

// TestThresholdInCategoricalAxisErrors: a crossing position only exists
// on a numeric axis; a mixed-process churn axis must ERROR, not guess.
func TestThresholdInCategoricalAxisErrors(t *testing.T) {
	s := &experiment.Sweep{
		Name:        "cat",
		Experiments: []string{"churn-repair"},
		Churn: []churn.Spec{
			{Process: "poisson", Leave: 8},
			{Process: "diurnal", Join: 2, Leave: 2, Amplitude: 0.8},
		},
		Seeds: []uint64{1},
	}
	trs := fixture(t, s, "quality", func(string) float64 { return 0.1 })
	got := Evaluate(s, trs, []Expectation{
		{Kind: "threshold_in", Series: "quality", Axis: "churn", Below: f(0.5), Lo: f(0), Hi: f(10)},
	})[0]
	if got.Status != StatusError || !strings.Contains(got.Detail, "categorical") {
		t.Fatalf("got %s (%s), want ERROR about a categorical axis", got.Status, got.Detail)
	}
}

// TestCIExcludesSingleReplicateErrors: one replicate carries no
// interval, and the outcome must say so rather than fail or pass.
func TestCIExcludesSingleReplicateErrors(t *testing.T) {
	s := &experiment.Sweep{
		Name:        "one",
		Experiments: []string{"fig6"},
		Ns:          []int{100},
		Seeds:       []uint64{1},
	}
	trs := fixture(t, s, "q", func(string) float64 { return 0.5 })
	got := Evaluate(s, trs, []Expectation{
		{Kind: "ci_excludes", Series: "q", Excludes: f(0)},
	})[0]
	if got.Status != StatusError || !strings.Contains(got.Detail, "at least 2") {
		t.Fatalf("got %s (%s), want ERROR about replicate count", got.Status, got.Detail)
	}
}

// TestMonotonePerGroupFailureNamesGroup: with a second axis swept, a
// violation in one group must name that group.
func TestMonotonePerGroupFailureNamesGroup(t *testing.T) {
	s := &experiment.Sweep{
		Name:        "grp",
		Experiments: []string{"fig6"},
		Ns:          []int{100, 200},
		Seeds:       []uint64{1, 2},
	}
	trs := fixture(t, s, "q", func(label string) float64 {
		// Seed 2's curve dips where seed 1's rises.
		if strings.Contains(label, "seed=2") && strings.Contains(label, "/n=200") {
			return 0.05
		}
		return linearY(label)
	})
	got := Evaluate(s, trs, []Expectation{
		{Kind: "monotone", Series: "q", Axis: "n", Direction: "increasing"},
	})[0]
	if got.Status != StatusFail || !strings.Contains(got.Detail, "seed=2") {
		t.Fatalf("got %s (%s), want FAIL naming the seed=2 group", got.Status, got.Detail)
	}
}

func TestReportPassedAndResultShape(t *testing.T) {
	s := nSweep(1)
	trs := fixture(t, s, "q", linearY)
	sc := &Scenario{Name: "shape", Question: "q?", Figure: "Fig 0", Sweep: s}
	rep := &Report{
		Scenario:  sc,
		Tasks:     trs,
		Aggregate: s.Aggregate(trs),
		Outcomes: Evaluate(s, trs, []Expectation{
			{Kind: "bounded", Series: "q", Lo: f(0)},
			{Kind: "bounded", Series: "q", Lo: f(0.9)},
		}),
	}
	if rep.Passed() {
		t.Fatal("report with a failing expectation claims Passed")
	}
	res := rep.Result()
	if res.ID != "scenario-shape" || len(res.Rows) != 2 {
		t.Fatalf("result shape: id=%q rows=%d", res.ID, len(res.Rows))
	}
	if res.Rows[0][0] != StatusPass || res.Rows[1][0] != StatusFail {
		t.Fatalf("status cells = %q, %q", res.Rows[0][0], res.Rows[1][0])
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "verdict: FAIL") {
			found = true
		}
	}
	if !found {
		t.Fatalf("notes omit the FAIL verdict: %v", res.Notes)
	}
}

// TestLibraryShape pins the registry contract the CLI and docs rely
// on: at least 10 scenarios, sorted stable names, and every entry's
// sweep passes the checks a submitted spec must pass and expands
// without running anything. It runs from the repo root, where the
// replay scenario's trace path resolves.
func TestLibraryShape(t *testing.T) {
	t.Chdir(filepath.Join("..", ".."))
	names := Names()
	if len(names) < 10 {
		t.Fatalf("library has %d scenarios, the issue requires >= 10: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, name := range names {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missed a listed scenario", name)
		}
		if sc.Sweep.Name != name {
			t.Errorf("%s: sweep name %q not aligned with scenario name", name, sc.Sweep.Name)
		}
		if err := sc.Sweep.Validate(); err != nil {
			t.Errorf("%s: sweep does not validate: %v", name, err)
		}
		if _, err := sc.Sweep.Tasks(); err != nil {
			t.Errorf("%s: sweep does not expand: %v", name, err)
		}
		if len(sc.Expect) == 0 {
			t.Errorf("%s: no expectations", name)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup invented a scenario")
	}
}

// TestRegisterRejectsBrokenDefinitions: the registry must refuse
// structurally invalid scenarios at init time.
func TestRegisterRejectsBrokenDefinitions(t *testing.T) {
	sweep := func() *experiment.Sweep {
		return &experiment.Sweep{Experiments: []string{"fig6"}, Ns: []int{100}}
	}
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"empty name", Scenario{Question: "q", Figure: "f", Sweep: sweep(),
			Expect: []Expectation{{Kind: "bounded", Series: "q", Lo: f(0)}}}},
		{"duplicate name", Scenario{Name: "fig5-resilience", Question: "q", Figure: "f", Sweep: sweep(),
			Expect: []Expectation{{Kind: "bounded", Series: "q", Lo: f(0)}}}},
		{"no expectations", Scenario{Name: "x1", Question: "q", Figure: "f", Sweep: sweep()}},
		{"unknown kind", Scenario{Name: "x2", Question: "q", Figure: "f", Sweep: sweep(),
			Expect: []Expectation{{Kind: "sorted", Series: "q"}}}},
		{"monotone without direction", Scenario{Name: "x3", Question: "q", Figure: "f", Sweep: sweep(),
			Expect: []Expectation{{Kind: "monotone", Series: "q", Axis: "n"}}}},
		{"bounded without bounds", Scenario{Name: "x4", Question: "q", Figure: "f", Sweep: sweep(),
			Expect: []Expectation{{Kind: "bounded", Series: "q"}}}},
		{"threshold_in with both bounds", Scenario{Name: "x5", Question: "q", Figure: "f", Sweep: sweep(),
			Expect: []Expectation{{Kind: "threshold_in", Series: "q", Axis: "n",
				Above: f(1), Below: f(2), Lo: f(0)}}}},
		{"gap onto itself", Scenario{Name: "x6", Question: "q", Figure: "f", Sweep: sweep(),
			Expect: []Expectation{{Kind: "gap", Series: "q", Axis: "n", From: 1, To: 1}}}},
		{"ci_excludes without value", Scenario{Name: "x7", Question: "q", Figure: "f", Sweep: sweep(),
			Expect: []Expectation{{Kind: "ci_excludes", Series: "q"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Register accepted a broken scenario")
				}
			}()
			Register(tc.sc)
		})
	}
}

// TestRunRejectsInvalidSweep: a sweep built in code gets the parser's
// checks before any task reaches a worker. A fraction above 1 would
// otherwise crash fig4's worker goroutine, and an axis no experiment
// reads would expand into tasks that ignore it.
func TestRunRejectsInvalidSweep(t *testing.T) {
	for sweep, want := range map[*experiment.Sweep]string{
		{Name: "bad-frac", Experiments: []string{"fig4"}, Fracs: []float64{2}}:                               "fracs[0]: 2 outside (0, 1]",
		{Name: "unread", Experiments: []string{"fig5"}, Churn: []churn.Spec{{Process: "poisson", Leave: 8}}}: "no experiment in [fig5] reads the churn axis",
	} {
		sc := &Scenario{Name: sweep.Name, Sweep: sweep, Expect: []Expectation{{Kind: "bounded", Series: "q", Lo: f(0)}}}
		if _, err := Run(sc, true, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want containing %q", sweep.Name, err, want)
		}
	}
}

// TestRunScenarioEndToEnd runs the acceptance scenario for real in
// quick mode and checks the headline artifacts: every expectation
// PASSes and the aggregate carries an interpolated "λ≈…" threshold row
// with a CI column sized from the trial count.
func TestRunScenarioEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	sc, ok := Lookup("churn-repair-lambda")
	if !ok {
		t.Fatal("acceptance scenario missing")
	}
	rep, err := Run(sc, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		if o.Status != StatusPass {
			t.Errorf("%s: %s — %s", o.Status, o.Expectation.Describe(), o.Detail)
		}
	}
	var interpolated, ci bool
	for _, row := range rep.Aggregate.Rows {
		if row[1] == "(threshold)" && strings.HasPrefix(row[4], "λ≈") {
			interpolated = true
		}
		if strings.Contains(row[2], "mean±sd") && strings.HasPrefix(row[10], "±") {
			ci = true
		}
	}
	if !interpolated {
		t.Error("aggregate has no interpolated λ≈ threshold row")
	}
	if !ci {
		t.Error("aggregate has no trial-count-sized CI cell")
	}
}
