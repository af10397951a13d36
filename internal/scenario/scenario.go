// Package scenario is the curated library of named questions the
// simulator can answer and machine-check: each scenario couples a sweep
// specification (internal/experiment) with a declarative expectation
// block describing the *shape* the paper claims — a curve that falls
// with churn intensity, a threshold that lands inside an interval, a
// retry budget that buys back a minimum reachability gap. Running a
// scenario runs the sweep and evaluates the expectations against the
// aggregate, so "Fig 5 resilience degrades gracefully" is a CI gate,
// not a sentence in a README.
package scenario

import (
	"fmt"
	"sort"
	"strings"

	"onionbots/internal/experiment"
	"onionbots/internal/stats"
)

// Expectation statuses. ERROR means the expectation could not be
// evaluated at all (missing series, categorical axis under threshold_in,
// a single replicate under ci_excludes) — it fails the scenario just
// like FAIL, but points at the spec rather than the simulated shape.
const (
	StatusPass  = "PASS"
	StatusFail  = "FAIL"
	StatusError = "ERROR"
)

// Expectation is one machine-checked claim about a sweep's aggregate.
// Kind selects the check; the other fields parameterize it. All kinds
// share the (Result, Series, Stat) selectors, which address a series
// statistic exactly as Threshold does.
type Expectation struct {
	// Kind is "monotone", "bounded", "threshold_in", "gap", or
	// "ci_excludes".
	Kind string `json:"kind"`
	// Result restricts the check to result IDs matching this selector
	// (empty = all; trailing "*" matches by prefix).
	Result string `json:"result,omitempty"`
	// Series names the series whose statistic is checked.
	Series string `json:"series"`
	// Stat picks the per-task scalar ("first", "last", "min", "max";
	// "" defaults to "last").
	Stat string `json:"stat,omitempty"`
	// Axis names the swept axis monotone/threshold_in/gap walk.
	Axis string `json:"axis,omitempty"`

	// Direction is "decreasing" or "increasing" (monotone).
	Direction string `json:"direction,omitempty"`
	// Tolerance allows counter-direction wiggles up to this much
	// between adjacent axis values (monotone).
	Tolerance float64 `json:"tolerance,omitempty"`

	// Lo and Hi bound the pooled mean (bounded) or the interpolated
	// crossing position (threshold_in). Either side may be nil for a
	// one-sided check; bounds are inclusive.
	Lo *float64 `json:"lo,omitempty"`
	Hi *float64 `json:"hi,omitempty"`

	// Above and Below are the crossing bound (threshold_in); exactly
	// one must be set, as in Threshold.
	Above *float64 `json:"above,omitempty"`
	Below *float64 `json:"below,omitempty"`

	// From and To index the axis's listed values (gap); the check is
	// mean(To) − mean(From) ≥ MinGap in every group.
	From   int     `json:"from,omitempty"`
	To     int     `json:"to,omitempty"`
	MinGap float64 `json:"min_gap,omitempty"`

	// Excludes is the value the pooled 95% confidence interval must
	// not contain (ci_excludes).
	Excludes *float64 `json:"excludes,omitempty"`
}

// statName renders the effective stat for messages.
func (e Expectation) statName() string {
	if e.Stat == "" {
		return "last"
	}
	return e.Stat
}

// target renders the "series.stat" selector, with the result selector
// when one is set.
func (e Expectation) target() string {
	t := e.Series + "." + e.statName()
	if e.Result != "" {
		t = e.Result + ":" + t
	}
	return t
}

// Describe renders the expectation as the one-line claim the outcome
// table shows.
func (e Expectation) Describe() string {
	switch e.Kind {
	case "monotone":
		return fmt.Sprintf("%s %s along %s (tol %g)", e.target(), e.Direction, e.Axis, e.Tolerance)
	case "bounded":
		return fmt.Sprintf("mean %s in %s", e.target(), interval(e.Lo, e.Hi))
	case "threshold_in":
		return fmt.Sprintf("crossing of %s %s along %s lands in %s",
			e.target(), boundText(e.Above, e.Below), e.Axis, interval(e.Lo, e.Hi))
	case "gap":
		return fmt.Sprintf("%s[%s#%d] − %s[%s#%d] ≥ %g",
			e.target(), e.Axis, e.To, e.target(), e.Axis, e.From, e.MinGap)
	case "ci_excludes":
		v := "?"
		if e.Excludes != nil {
			v = fmt.Sprintf("%g", *e.Excludes)
		}
		return fmt.Sprintf("ci95 of %s excludes %s", e.target(), v)
	}
	return fmt.Sprintf("unknown expectation kind %q", e.Kind)
}

func interval(lo, hi *float64) string {
	l, h := "-inf", "+inf"
	if lo != nil {
		l = fmt.Sprintf("%g", *lo)
	}
	if hi != nil {
		h = fmt.Sprintf("%g", *hi)
	}
	return fmt.Sprintf("[%s, %s]", l, h)
}

func boundText(above, below *float64) string {
	if above != nil {
		return fmt.Sprintf("> %g", *above)
	}
	if below != nil {
		return fmt.Sprintf("< %g", *below)
	}
	return "(no bound)"
}

// validate rejects structurally broken expectations at registration
// time. It deliberately does not touch the filesystem (replay traces
// resolve at run time) and does not check axis sweeping — ScanAxis
// reports that at evaluation time, where it can name the spec.
func (e Expectation) validate() error {
	if e.Series == "" {
		return fmt.Errorf("expectation %s: no series named", e.Kind)
	}
	if !experiment.ValidStat(e.Stat) {
		return fmt.Errorf("expectation %s: unknown stat %q", e.Kind, e.Stat)
	}
	switch e.Kind {
	case "monotone":
		if e.Direction != "decreasing" && e.Direction != "increasing" {
			return fmt.Errorf("monotone: direction %q (want decreasing or increasing)", e.Direction)
		}
		if e.Axis == "" {
			return fmt.Errorf("monotone: no axis named")
		}
		if e.Tolerance < 0 {
			return fmt.Errorf("monotone: negative tolerance %g", e.Tolerance)
		}
	case "bounded":
		if e.Lo == nil && e.Hi == nil {
			return fmt.Errorf("bounded: neither lo nor hi set")
		}
	case "threshold_in":
		if e.Axis == "" {
			return fmt.Errorf("threshold_in: no axis named")
		}
		if (e.Above == nil) == (e.Below == nil) {
			return fmt.Errorf("threshold_in: exactly one of above/below must be set")
		}
		if e.Lo == nil && e.Hi == nil {
			return fmt.Errorf("threshold_in: neither lo nor hi set")
		}
	case "gap":
		if e.Axis == "" {
			return fmt.Errorf("gap: no axis named")
		}
		if e.From == e.To {
			return fmt.Errorf("gap: from and to index the same axis value %d", e.From)
		}
		if e.From < 0 || e.To < 0 {
			return fmt.Errorf("gap: negative axis index")
		}
	case "ci_excludes":
		if e.Excludes == nil {
			return fmt.Errorf("ci_excludes: no excluded value set")
		}
	default:
		return fmt.Errorf("unknown expectation kind %q (want monotone, bounded, threshold_in, gap, or ci_excludes)", e.Kind)
	}
	return nil
}

// Scenario is one named question: a sweep plus the expected shape of
// its answer.
type Scenario struct {
	// Name is the registry key ("churn-repair-lambda").
	Name string
	// Question is the one-sentence question the scenario answers.
	Question string
	// Figure names the paper figure/section the question comes from
	// ("Fig 5", "§VII-A"), or a PAPERS.md pointer for follow-on work.
	Figure string
	// Sweep is the grid to run. Its Name is overwritten with the
	// scenario name so aggregates are addressable.
	Sweep *experiment.Sweep
	// Expect is the expectation block evaluated against the aggregate.
	Expect []Expectation
}

// Outcome is one evaluated expectation.
type Outcome struct {
	Expectation Expectation `json:"expectation"`
	Status      string      `json:"status"`
	// Detail says what was measured — and on FAIL/ERROR, which
	// series/axis value is the offender.
	Detail string `json:"detail"`
}

// Report is a scenario run: the sweep's task results and aggregate,
// plus the evaluated expectations.
type Report struct {
	Scenario  *Scenario
	Tasks     []experiment.TaskResult
	Aggregate *experiment.Result
	Outcomes  []Outcome
}

// Passed reports whether every expectation PASSed.
func (r *Report) Passed() bool {
	for _, o := range r.Outcomes {
		if o.Status != StatusPass {
			return false
		}
	}
	return true
}

// Result renders the outcomes as a table-shaped experiment result, so
// scenario output flows through the same Render/CSV/JSON paths as
// everything else.
func (r *Report) Result() *experiment.Result {
	res := &experiment.Result{
		ID:     "scenario-" + r.Scenario.Name,
		Title:  r.Scenario.Question,
		Header: []string{"status", "expectation", "detail"},
	}
	for _, o := range r.Outcomes {
		res.Rows = append(res.Rows, []string{o.Status, o.Expectation.Describe(), o.Detail})
	}
	verdict := StatusPass
	if !r.Passed() {
		verdict = StatusFail
	}
	res.AddNote("figure: %s", r.Scenario.Figure)
	res.AddNote("verdict: %s (%d expectations over %d tasks)", verdict, len(r.Outcomes), len(r.Tasks))
	return res
}

// registry of named scenarios, keyed by Name.
var registry = map[string]*Scenario{}

// Register adds a scenario. It panics on duplicates or structurally
// invalid definitions: registration happens at init time, and a broken
// library is a programming error, not an input error.
func Register(sc Scenario) {
	if sc.Name == "" {
		panic("scenario: Register with empty name")
	}
	if _, dup := registry[sc.Name]; dup {
		panic("scenario: duplicate " + sc.Name)
	}
	if sc.Question == "" || sc.Figure == "" {
		panic("scenario " + sc.Name + ": question and figure are required")
	}
	if sc.Sweep == nil || len(sc.Sweep.Experiments) == 0 {
		panic("scenario " + sc.Name + ": no sweep")
	}
	if len(sc.Expect) == 0 {
		panic("scenario " + sc.Name + ": no expectations")
	}
	for i, e := range sc.Expect {
		if err := e.validate(); err != nil {
			panic(fmt.Sprintf("scenario %s: expect[%d]: %v", sc.Name, i, err))
		}
	}
	sc.Sweep.Name = sc.Name
	registry[sc.Name] = &sc
}

// Lookup returns a registered scenario.
func Lookup(name string) (*Scenario, bool) {
	sc, ok := registry[name]
	return sc, ok
}

// Names returns all registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes a scenario: validate and expand the sweep (forcing quick
// presets when quick is set), run it on the given runner (nil =
// defaults), aggregate, and evaluate the expectation block. The error
// covers infrastructure problems (bad grid); failed expectations are
// Outcomes, not errors. The sweep is validated here rather than in
// Register because a replay churn spec's check opens its trace file,
// which resolves against the working directory of the run.
func Run(sc *Scenario, quick bool, runner *experiment.Runner) (*Report, error) {
	s := *sc.Sweep
	if quick {
		s.Quick = true
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	tasks, err := s.Tasks()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if runner == nil {
		runner = &experiment.Runner{}
	}
	trs, err := runner.Run(tasks)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return &Report{
		Scenario:  sc,
		Tasks:     trs,
		Aggregate: s.Aggregate(trs),
		Outcomes:  Evaluate(&s, trs, sc.Expect),
	}, nil
}

// Evaluate checks every expectation against a sweep's task results.
func Evaluate(s *experiment.Sweep, trs []experiment.TaskResult, expect []Expectation) []Outcome {
	out := make([]Outcome, 0, len(expect))
	for _, e := range expect {
		out = append(out, evaluate(s, trs, e))
	}
	return out
}

func evaluate(s *experiment.Sweep, trs []experiment.TaskResult, e Expectation) Outcome {
	status, detail := func() (string, string) {
		switch e.Kind {
		case "monotone":
			return evalMonotone(s, trs, e)
		case "bounded":
			return evalBounded(trs, e)
		case "threshold_in":
			return evalThresholdIn(s, trs, e)
		case "gap":
			return evalGap(s, trs, e)
		case "ci_excludes":
			return evalCIExcludes(trs, e)
		}
		return StatusError, fmt.Sprintf("unknown expectation kind %q", e.Kind)
	}()
	return Outcome{Expectation: e, Status: status, Detail: detail}
}

// pool collects the selected series statistic from every successful
// task, in task order.
func pool(trs []experiment.TaskResult, e Expectation) []float64 {
	var vals []float64
	for _, tr := range trs {
		if tr.Err != nil {
			continue
		}
		for _, r := range tr.Results {
			if !experiment.MatchResultID(e.Result, r.ID) {
				continue
			}
			for _, sr := range r.Series {
				if sr.Name == e.Series {
					vals = append(vals, experiment.SeriesStat(sr, e.Stat))
				}
			}
		}
	}
	return vals
}

func evalMonotone(s *experiment.Sweep, trs []experiment.TaskResult, e Expectation) (string, string) {
	scan, err := s.ScanAxis(trs, e.Result, e.Series, e.Stat, e.Axis)
	if err != nil {
		return StatusError, err.Error()
	}
	sign := 1.0
	if e.Direction == "decreasing" {
		sign = -1.0
	}
	groups := 0
	for _, g := range scan.Groups {
		var cells []experiment.AxisCell
		for _, c := range g.Cells {
			if c.N > 0 {
				cells = append(cells, c)
			}
		}
		if len(cells) < 2 {
			return StatusError, fmt.Sprintf("series %q has data at %d axis value(s) in group %s — nothing to order",
				e.Series, len(cells), g.Group)
		}
		groups++
		for i := 1; i < len(cells); i++ {
			prev, cur := cells[i-1], cells[i]
			if sign*(cur.Mean-prev.Mean) < -e.Tolerance {
				return StatusFail, fmt.Sprintf(
					"series %q not %s along %s: %s=%s→%s moved %.4g→%.4g (group %s, tol %g)",
					e.Series, e.Direction, e.Axis, scan.Axis, prev.Label, cur.Label,
					prev.Mean, cur.Mean, g.Group, e.Tolerance)
			}
		}
	}
	if groups == 0 {
		return StatusError, fmt.Sprintf("no data for series %q on axis %s", e.Series, e.Axis)
	}
	return StatusPass, fmt.Sprintf("%s across %d group(s)", e.Direction, groups)
}

func evalBounded(trs []experiment.TaskResult, e Expectation) (string, string) {
	vals := pool(trs, e)
	if len(vals) == 0 {
		return StatusError, fmt.Sprintf("no data for series %q", e.Series)
	}
	var w stats.Welford
	for _, v := range vals {
		w.Add(v)
	}
	mean := w.Mean()
	if e.Lo != nil && mean < *e.Lo {
		return StatusFail, fmt.Sprintf("mean %s = %.4g below lo %g (%d tasks)", e.target(), mean, *e.Lo, len(vals))
	}
	if e.Hi != nil && mean > *e.Hi {
		return StatusFail, fmt.Sprintf("mean %s = %.4g above hi %g (%d tasks)", e.target(), mean, *e.Hi, len(vals))
	}
	return StatusPass, fmt.Sprintf("mean %s = %.4g over %d task(s)", e.target(), mean, len(vals))
}

func evalThresholdIn(s *experiment.Sweep, trs []experiment.TaskResult, e Expectation) (string, string) {
	th := experiment.Threshold{
		Result: e.Result, Series: e.Series, Stat: e.Stat, Axis: e.Axis,
		Above: e.Above, Below: e.Below,
	}
	scan, err := s.ScanAxis(trs, e.Result, e.Series, e.Stat, e.Axis)
	if err != nil {
		return StatusError, err.Error()
	}
	if !scan.Numeric {
		return StatusError, fmt.Sprintf(
			"axis %s is categorical here — threshold_in needs a numeric axis to place a crossing on", e.Axis)
	}
	if len(scan.Groups) == 0 {
		return StatusError, fmt.Sprintf("no data for series %q on axis %s", e.Series, e.Axis)
	}
	var labels []string
	for _, g := range scan.Groups {
		label, x, _, scanned, found := th.Crossing(scan, g)
		if !found {
			return StatusFail, fmt.Sprintf("series %q never crosses %s along %s (%d value(s) scanned, group %s)",
				e.Series, boundText(e.Above, e.Below), e.Axis, scanned, g.Group)
		}
		if (e.Lo != nil && x < *e.Lo) || (e.Hi != nil && x > *e.Hi) {
			return StatusFail, fmt.Sprintf("crossing %s outside %s (group %s)",
				label, interval(e.Lo, e.Hi), g.Group)
		}
		labels = append(labels, label)
	}
	return StatusPass, fmt.Sprintf("crossing at %s in %s", strings.Join(labels, ", "), interval(e.Lo, e.Hi))
}

func evalGap(s *experiment.Sweep, trs []experiment.TaskResult, e Expectation) (string, string) {
	scan, err := s.ScanAxis(trs, e.Result, e.Series, e.Stat, e.Axis)
	if err != nil {
		return StatusError, err.Error()
	}
	if len(scan.Groups) == 0 {
		return StatusError, fmt.Sprintf("no data for series %q on axis %s", e.Series, e.Axis)
	}
	var gaps []string
	for _, g := range scan.Groups {
		if e.From >= len(g.Cells) || e.To >= len(g.Cells) {
			return StatusError, fmt.Sprintf("axis %s has %d values; gap indexes %d and %d",
				e.Axis, len(g.Cells), e.From, e.To)
		}
		from, to := g.Cells[e.From], g.Cells[e.To]
		if from.N == 0 || to.N == 0 {
			return StatusError, fmt.Sprintf("series %q missing at %s=%s or %s=%s (group %s)",
				e.Series, e.Axis, from.Label, e.Axis, to.Label, g.Group)
		}
		gap := to.Mean - from.Mean
		if gap < e.MinGap {
			return StatusFail, fmt.Sprintf(
				"gap %s=%s→%s is %.4g (%.4g→%.4g), want ≥ %g (group %s)",
				e.Axis, from.Label, to.Label, gap, from.Mean, to.Mean, e.MinGap, g.Group)
		}
		gaps = append(gaps, fmt.Sprintf("%.4g", gap))
	}
	return StatusPass, fmt.Sprintf("gap %s ≥ %g", strings.Join(gaps, ", "), e.MinGap)
}

func evalCIExcludes(trs []experiment.TaskResult, e Expectation) (string, string) {
	vals := pool(trs, e)
	if len(vals) == 0 {
		return StatusError, fmt.Sprintf("no data for series %q", e.Series)
	}
	mean, _, half, ok := stats.MeanCI95(vals)
	if !ok {
		return StatusError, fmt.Sprintf("series %q has %d replicate(s) — a confidence interval needs at least 2",
			e.Series, len(vals))
	}
	lo, hi := mean-half, mean+half
	if *e.Excludes >= lo && *e.Excludes <= hi {
		return StatusFail, fmt.Sprintf("ci95 of %s = [%.4g, %.4g] contains %g (n=%d)",
			e.target(), lo, hi, *e.Excludes, len(vals))
	}
	return StatusPass, fmt.Sprintf("ci95 of %s = [%.4g, %.4g] excludes %g (n=%d)",
		e.target(), lo, hi, *e.Excludes, len(vals))
}

// f is a pointer-literal helper for expectation bounds.
func f(v float64) *float64 { return &v }
