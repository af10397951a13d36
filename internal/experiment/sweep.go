package experiment

import (
	"fmt"
	"os"
	"strings"

	"onionbots/internal/churn"
	"onionbots/internal/jsonx"
	"onionbots/internal/soap"
	"onionbots/internal/stats"
)

// Sweep is a scenario-sweep specification: one or more registered
// experiments crossed with parameter grids. The zero value of every
// axis means "keep the experiment's preset"; listing values fans the
// experiment out over them. A sweep expands to one task per
// combination of experiment and listed axis values (see the axes
// table), each with its own RNG substream derived from (seed, task
// label).
//
// Sweeps are written as JSON files (see examples/sweep):
//
//	{
//	  "name": "fig6-grid",
//	  "experiments": ["fig6"],
//	  "quick": true,
//	  "ns": [800, 1000, 1200],
//	  "seeds": [1, 2, 3]
//	}
type Sweep struct {
	// Name labels the sweep; the aggregate result's ID is "sweep-"+Name.
	Name string `json:"name"`
	// Experiments are the registry IDs to fan out.
	Experiments []string `json:"experiments"`
	// Quick selects the scaled-down presets for every task.
	Quick bool `json:"quick,omitempty"`
	// Ns, Ks, Fracs and Seeds are the static grid axes (empty =
	// preset; unset seeds run seed 1).
	Ns    []int     `json:"ns,omitempty"`
	Ks    []int     `json:"ks,omitempty"`
	Fracs []float64 `json:"fracs,omitempty"`
	Seeds []uint64  `json:"seeds,omitempty"`
	// Churn sweeps dynamic-membership scenarios, one task per listed
	// spec, exactly like the static axes — the lever behind questions
	// such as "how does DDSR repair degrade under Poisson leave at λ?".
	Churn []churn.Spec `json:"churn,omitempty"`
	// Soap sweeps mitigation-campaign configurations the same way —
	// crossed with Churn it answers "does a clone budget that contains
	// a static population still contain a moving one?".
	Soap []soap.Spec `json:"soap,omitempty"`
	// Faults sweeps infrastructure fault planes (relay crashes, HSDir
	// outage waves, intro failures) bundled with client retry budgets —
	// one axis crossing failure intensity against resilience, which is
	// how "does a retry budget buy back C&C reachability under a 30%
	// directory outage?" becomes a grid question.
	Faults []churn.FaultSpec `json:"faults,omitempty"`
	// Trials replicates every grid point this many times (default 1).
	// Replicas share Params but get distinct labels, hence distinct RNG
	// substreams — the cheap way to average away seed noise.
	Trials int `json:"trials,omitempty"`
	// Thresholds extract answers from the aggregated grid: each one
	// scans a swept axis for the first value where a series statistic
	// crosses a bound ("λ at first partition"). See Threshold.
	Thresholds []Threshold `json:"thresholds,omitempty"`
}

// ParseSweep decodes and validates a JSON sweep spec. Unknown fields
// are rejected so a typo ("seed" for "seeds") cannot silently collapse
// a grid axis; the decoded sweep must then pass Validate.
func ParseSweep(data []byte) (*Sweep, error) {
	var s Sweep
	if err := jsonx.DecodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("parse sweep: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("parse sweep: %w", err)
	}
	if s.Name == "" {
		s.Name = strings.Join(s.Experiments, "+")
	}
	return &s, nil
}

// Validate rejects a sweep that could not run cleanly: no or unknown
// experiments, negative trials, axis values out of range or listed
// twice, an axis varied although none of the experiments reads it (see
// Definition.Reads), and malformed thresholds. ParseSweep applies it to
// every decoded spec; sweeps built in code call it themselves.
func (s *Sweep) Validate() error {
	if len(s.Experiments) == 0 {
		return fmt.Errorf("no experiments listed")
	}
	if s.Trials < 0 {
		return fmt.Errorf("negative trials %d", s.Trials)
	}
	var reads Axis
	for _, id := range s.Experiments {
		def, ok := Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		reads |= def.Reads
	}
	for i := range axes {
		if err := axes[i].validate(s, reads); err != nil {
			return err
		}
	}
	for i, th := range s.Thresholds {
		if err := th.validate(s); err != nil {
			return fmt.Errorf("thresholds[%d]: %w", i, err)
		}
	}
	return nil
}

// LoadSweep reads and parses a sweep spec file.
func LoadSweep(path string) (*Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSweep(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Tasks expands the sweep into its full task grid, in deterministic
// order: experiments, then one odometer over the axes table (n × k ×
// frac × churn × soap × faults × seed × trial, the last fastest). Every
// experiment ID is checked against the registry up front so a bad spec
// fails before any work starts.
func (s *Sweep) Tasks() ([]Task, error) {
	for _, id := range s.Experiments {
		if _, ok := Lookup(id); !ok {
			return nil, fmt.Errorf("sweep %s: unknown experiment %q", s.Name, id)
		}
	}
	var labels [len(axes)][]string
	total := len(s.Experiments)
	for i := range axes {
		labels[i] = axes[i].labels(s)
		total *= max(1, len(labels[i]))
	}
	tasks := make([]Task, 0, total)
	var buf []byte
	for _, id := range s.Experiments {
		var at [len(axes)]int
		for {
			// Unset seeds run seed 1.
			tasks = append(tasks, Task{Experiment: id, Params: Params{Quick: s.Quick, Seed: 1}})
			t := &tasks[len(tasks)-1]
			buf = append(buf[:0], id...)
			for i := range axes {
				if labels[i] == nil {
					continue
				}
				buf = append(append(append(append(buf, '/'), axes[i].name...), '='), labels[i][at[i]]...)
				if axes[i].set != nil {
					axes[i].set(&t.Params, s, at[i])
				}
			}
			t.Label = string(buf)
			i := len(axes) - 1
			for ; i >= 0; i-- {
				if at[i]++; at[i] < len(labels[i]) {
					break
				}
				at[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return tasks, nil
}

// Aggregate folds a sweep's task results into one table-shaped Result:
// a row per produced series (first/last/min/max of y) and a row per
// table-shaped sub-result, so a whole grid reads as a single table and
// exports through the usual Render/CSV/JSON paths. Failed tasks appear
// as error rows rather than vanishing.
//
// On top of the per-task rows, the aggregate carries cross-task
// statistics: when the spec replicates grid points (Trials > 1), every
// (grid point, result, series) gets a "(mean±sd)" row with the mean,
// sample standard deviation, and Student-t 95% confidence half-width
// (sized from the trial count) of the series' last value over the
// trials; when the spec sweeps several seeds, every seed-free grid
// point additionally gets a "(mean±sd seeds)" row pooling all
// seed × trial replicates; and every Threshold in the spec contributes
// one "(threshold)" row per combination of the non-scanned axes,
// reporting where the replicate-mean crosses the bound — linearly
// interpolated on numeric axes ("λ≈12.4"), the first crossed label on
// categorical ones. A grid therefore answers its question — "mean
// recovery at each λ, and where does it break?" — without
// post-processing.
func (s *Sweep) Aggregate(trs []TaskResult) *Result {
	res := &Result{
		ID:    "sweep-" + s.Name,
		Title: fmt.Sprintf("Scenario sweep %s: %s over %d tasks", s.Name, strings.Join(s.Experiments, ","), len(trs)),
		Header: []string{"task", "result", "series", "points",
			"y.first", "y.last", "y.min", "y.max", "last.mean", "last.stddev", "last.ci95"},
	}
	failed := 0
	for _, tr := range trs {
		if tr.Err != nil {
			failed++
			res.Rows = append(res.Rows, []string{
				tr.Task.Label, "error: " + tr.Err.Error(), "-", "-", "-", "-", "-", "-", "-", "-", "-",
			})
			continue
		}
		for _, r := range tr.Results {
			for _, series := range r.Series {
				first, last, min, max := seriesStats(series)
				res.Rows = append(res.Rows, []string{
					tr.Task.Label, r.ID, series.Name,
					fmt.Sprintf("%d", len(series.Points)),
					fmt.Sprintf("%g", first), fmt.Sprintf("%g", last),
					fmt.Sprintf("%g", min), fmt.Sprintf("%g", max),
					"-", "-", "-",
				})
			}
			if len(r.Rows) > 0 {
				res.Rows = append(res.Rows, []string{
					tr.Task.Label, r.ID, "(table)",
					fmt.Sprintf("%d", len(r.Rows)), "-", "-", "-", "-", "-", "-", "-",
				})
			}
		}
	}
	s.appendReplicateStats(res, trs)
	for _, th := range s.Thresholds {
		s.appendThreshold(res, trs, th)
	}
	note := fmt.Sprintf("grid: %d experiments ×", len(s.Experiments))
	for i := range axes {
		note += " " + axes[i].field + "=" + axes[i].noteValue(s)
	}
	res.AddNote("%s", note)
	if failed > 0 {
		res.AddNote("%d/%d tasks failed", failed, len(trs))
	}
	return res
}

// stripComponents removes the named label components from a task label
// ("fig6/n=800/seed=1/trial=2").
func stripComponents(label string, keys ...string) string {
	parts := strings.Split(label, "/")
	out := parts[:0]
	for _, p := range parts {
		drop := false
		for _, k := range keys {
			if strings.HasPrefix(p, k+"=") {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, p)
		}
	}
	return strings.Join(out, "/")
}

// labelComponent extracts the value of one label component, or "".
func labelComponent(label, key string) string {
	for _, p := range strings.Split(label, "/") {
		if v, ok := strings.CutPrefix(p, key+"="); ok {
			return v
		}
	}
	return ""
}

// appendReplicateStats emits the cross-replicate statistics rows:
//
//   - "(mean±sd)" — with Trials > 1, one row per (grid point, result,
//     series) over the point's trial replicas.
//   - "(mean±sd seeds)" — with several seeds swept, one row per
//     seed-free grid point pooling every seed × trial replicate, the
//     cross-seed statistic the per-seed rows cannot show.
//
// Both carry a Student-t 95% confidence half-width in the last.ci95
// column, sized from the replicate count (see internal/stats).
func (s *Sweep) appendReplicateStats(res *Result, trs []TaskResult) {
	if s.Trials > 1 {
		s.appendStatRows(res, trs, " (mean±sd)", trialAxis)
	}
	if len(s.Seeds) > 1 {
		s.appendStatRows(res, trs, " (mean±sd seeds)", trialAxis, seedAxis)
	}
}

// appendStatRows pools the last value of every (grid point, result,
// series) over the replicate components named in strip, and emits one
// mean / stddev / CI row per pool.
func (s *Sweep) appendStatRows(res *Result, trs []TaskResult, suffix string, strip ...string) {
	type key struct{ point, result, series string }
	pools := map[key]*stats.Welford{}
	var order []key
	for _, tr := range trs {
		if tr.Err != nil {
			continue
		}
		point := stripComponents(tr.Task.Label, strip...)
		for _, r := range tr.Results {
			for _, series := range r.Series {
				k := key{point, r.ID, series.Name}
				w, seen := pools[k]
				if !seen {
					w = &stats.Welford{}
					pools[k] = w
					order = append(order, k)
				}
				_, last, _, _ := seriesStats(series)
				w.Add(last)
			}
		}
	}
	for _, k := range order {
		w := pools[k]
		ci := "-"
		if half, ok := stats.CI95Half(w.Stddev(), w.N()); ok {
			ci = fmt.Sprintf("±%.4g", half)
		}
		res.Rows = append(res.Rows, []string{
			k.point, k.result, k.series + suffix,
			fmt.Sprintf("%d", w.N()),
			"-", "-", "-", "-",
			fmt.Sprintf("%g", w.Mean()), fmt.Sprintf("%g", w.Stddev()), ci,
		})
	}
}

func seriesStats(s Series) (first, last, min, max float64) {
	if len(s.Points) == 0 {
		return 0, 0, 0, 0
	}
	first = s.Points[0].Y
	last = s.Points[len(s.Points)-1].Y
	min, max = first, first
	for _, p := range s.Points {
		if p.Y < min {
			min = p.Y
		}
		if p.Y > max {
			max = p.Y
		}
	}
	return first, last, min, max
}
