package experiment

import (
	"fmt"
	"strings"

	"onionbots/internal/stats"
)

// Threshold is a declarative answer-extraction rule for a sweep grid.
// For every combination of the sweep's other axes, Aggregate walks the
// named axis in spec order, averages the chosen per-task series
// statistic over replicates at each axis value, and reports where the
// mean crosses the bound. A churn grid with
//
//	{"series": "quality", "stat": "last", "axis": "churn", "below": 0.8}
//
// therefore answers "at which churn intensity does repair quality
// first drop under 0.8?" as a single aggregate row.
//
// On a numeric axis the crossing is linearly interpolated between the
// last grid point on the safe side and the first on the crossed side,
// so the row reads "λ≈12.4" rather than "first listed λ" — the grid
// brackets the answer instead of quantizing it. Numeric axes are n, k,
// and frac, plus any churn/soap/faults axis whose specs share a shape
// and differ in exactly one numeric knob (a leave-rate ladder, a clone
// budget ladder, ...). Genuinely categorical axes — mixed processes,
// several knobs varying at once — keep the historical behavior and
// report the first crossing value's label exactly.
type Threshold struct {
	// Result restricts the scan to results with this ID (empty = all;
	// a trailing "*" matches by prefix, for per-size result IDs like
	// "fig5-components-n=400").
	Result string `json:"result,omitempty"`
	// Series names the series whose statistic is scanned.
	Series string `json:"series"`
	// Stat picks the per-task scalar: "first", "last" (default),
	// "min", or "max" of the series' y values.
	Stat string `json:"stat,omitempty"`
	// Axis names the swept axis to walk, as task labels name it (n, k,
	// frac, churn, soap or faults). It must actually be swept by the
	// spec. The seed axis is rejected — seeds are replicates, not a
	// parameter, and interpolating over them is meaningless. Replicate
	// with trials (or read the cross-seed mean±sd rows) instead.
	Axis string `json:"axis"`
	// Above and Below are the crossing bounds; exactly one must be set.
	Above *float64 `json:"above,omitempty"`
	Below *float64 `json:"below,omitempty"`
}

// validate checks the threshold against the spec's swept axes.
func (th Threshold) validate(s *Sweep) error {
	if th.Series == "" {
		return fmt.Errorf("threshold: no series named")
	}
	if !ValidStat(th.Stat) {
		return fmt.Errorf("threshold: unknown stat %q (want first, last, min, or max)", th.Stat)
	}
	if (th.Above == nil) == (th.Below == nil) {
		return fmt.Errorf("threshold: exactly one of above/below must be set")
	}
	switch a := axisNamed(th.Axis); {
	case a == nil || a.id == AxisTrial:
		return fmt.Errorf("threshold: unknown axis %q (want %s)", th.Axis, scannedAxes())
	case a.id&replicaAxes != 0:
		return fmt.Errorf("threshold: axis %q cannot be scanned — seeds are replicates, not a parameter, and interpolating over them is meaningless; use trials (or the cross-seed mean±sd rows) instead", th.Axis)
	case a.count(s) == 0:
		return fmt.Errorf("threshold: axis %q is not swept by this spec", th.Axis)
	}
	return nil
}

// crossed reports whether a mean value satisfies the bound.
func (th Threshold) crossed(mean float64) bool {
	if th.Above != nil {
		return mean > *th.Above
	}
	return mean < *th.Below
}

// bound renders the crossing rule ("> 0.5", "< 0.8").
func (th Threshold) bound() string {
	if th.Above != nil {
		return fmt.Sprintf("> %g", *th.Above)
	}
	return fmt.Sprintf("< %g", *th.Below)
}

// String renders the rule for aggregate rows and error messages:
// "first churn with mean quality.last < 0.8". On numeric axes the
// reported crossing is linearly interpolated between grid points
// (rendered "axis≈value" in the row), not the first listed value.
func (th Threshold) String() string {
	stat := th.Stat
	if stat == "" {
		stat = "last"
	}
	return fmt.Sprintf("first %s with mean %s.%s %s", th.Axis, th.Series, stat, th.bound())
}

// ValidStat reports whether stat names a known per-task scalar
// ("first", "last", "min", "max", or "" for the last-value default).
func ValidStat(stat string) bool {
	switch stat {
	case "", "first", "last", "min", "max":
		return true
	}
	return false
}

// SeriesStat extracts the named scalar from a series: the first, last,
// minimum, or maximum of its y values ("" defaults to "last").
func SeriesStat(s Series, stat string) float64 {
	first, last, min, max := seriesStats(s)
	switch stat {
	case "first":
		return first
	case "min":
		return min
	case "max":
		return max
	default:
		return last
	}
}

// MatchResultID reports whether a result ID matches a selector: empty
// matches everything, a trailing "*" matches by prefix, anything else
// matches exactly. Experiments that embed parameters in result IDs
// ("fig5-components-n=400") stay selectable across grid points via the
// prefix form.
func MatchResultID(selector, id string) bool {
	if selector == "" {
		return true
	}
	if prefix, ok := strings.CutSuffix(selector, "*"); ok {
		return strings.HasPrefix(id, prefix)
	}
	return selector == id
}

// AxisCell is one scanned value of a swept axis for one group: the
// axis value's label (exactly as task labels embed it), its numeric
// position when the axis is numeric, and the replicate mean of the
// scanned statistic.
type AxisCell struct {
	// Label is the axis value as task labels embed it ("16",
	// "poisson;l=16", ...).
	Label string
	// X is the numeric axis value; meaningful only when the scan is
	// numeric.
	X float64
	// Mean is the mean of the scanned statistic over the replicates at
	// this axis value; N counts them. N == 0 means no task produced the
	// scanned series here.
	Mean float64
	N    int
}

// AxisScan is the result of walking one swept axis: for each
// combination of the sweep's other axes (a "group"), the replicate-mean
// statistic at every axis value, in spec order.
type AxisScan struct {
	// Axis names the scanned axis; Display is how crossings render the
	// axis (the axis name, or a spec ladder's knob: λ, clones, ...).
	// Numeric reports whether the axis values carry interpolatable
	// numeric positions.
	Axis    string
	Display string
	Numeric bool
	// Groups holds one entry per combination of the non-scanned axes,
	// in first-appearance (task) order. Every group's Cells slice is
	// parallel to the axis's spec-order values.
	Groups []AxisGroup
}

// AxisGroup is one combination of the non-scanned axes.
type AxisGroup struct {
	// Group is the task label with the scanned-axis and trial
	// components stripped ("churn-repair/seed=1").
	Group string
	Cells []AxisCell
}

// ScanAxis walks a swept axis: for every combination of the sweep's
// other axes it averages the named series statistic over replicates at
// each axis value. This is the shared machinery under threshold rows
// and the scenario library's axis-shaped expectations (monotone,
// threshold_in, gap). resultID selects which sub-results contribute
// (see MatchResultID); stat is a SeriesStat name.
func (s *Sweep) ScanAxis(trs []TaskResult, resultID, series, stat, axis string) (*AxisScan, error) {
	if series == "" {
		return nil, fmt.Errorf("scan axis: no series named")
	}
	if !ValidStat(stat) {
		return nil, fmt.Errorf("scan axis: unknown stat %q (want first, last, min, or max)", stat)
	}
	a := axisNamed(axis)
	if a == nil || a.id == AxisTrial || a.count(s) == 0 {
		return nil, fmt.Errorf("scan axis: axis %q is not swept by this spec", axis)
	}
	labels := a.labels(s)
	scan := &AxisScan{Axis: axis}
	var xs []float64
	if a.numeric != nil {
		xs, scan.Display = a.numeric(s)
	}
	if scan.Numeric = xs != nil; scan.Numeric && scan.Display == "" {
		scan.Display = a.name
	}

	index := make(map[string]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	type acc = stats.Welford
	groups := map[string][]*acc{}
	var order []string
	for _, tr := range trs {
		if tr.Err != nil {
			continue
		}
		axisVal := labelComponent(tr.Task.Label, axis)
		ai, ok := index[axisVal]
		if !ok {
			continue
		}
		group := stripComponents(tr.Task.Label, axis, trialAxis)
		cells, seen := groups[group]
		if !seen {
			cells = make([]*acc, len(labels))
			groups[group] = cells
			order = append(order, group)
		}
		for _, r := range tr.Results {
			if !MatchResultID(resultID, r.ID) {
				continue
			}
			for _, sr := range r.Series {
				if sr.Name != series {
					continue
				}
				if cells[ai] == nil {
					cells[ai] = &acc{}
				}
				cells[ai].Add(SeriesStat(sr, stat))
			}
		}
	}
	for _, group := range order {
		g := AxisGroup{Group: group, Cells: make([]AxisCell, len(labels))}
		for i, c := range groups[group] {
			g.Cells[i] = AxisCell{Label: labels[i]}
			if scan.Numeric {
				g.Cells[i].X = xs[i]
			}
			if c != nil {
				g.Cells[i].Mean = c.Mean()
				g.Cells[i].N = c.N()
			}
		}
		scan.Groups = append(scan.Groups, g)
	}
	return scan, nil
}

// Crossing locates where the replicate-mean statistic first satisfies
// the threshold's bound along one group's cells. On a numeric scan the
// crossing is linearly interpolated between the last safe grid point
// and the first crossed one ("λ≈12.4"), with x carrying the
// interpolated position; on a categorical scan it is the first crossed
// value's label, exactly (x is meaningless). found is false when no
// scanned cell crosses; scanned counts cells with data.
func (th Threshold) Crossing(scan *AxisScan, g AxisGroup) (label string, x, mean float64, scanned int, found bool) {
	type pt struct {
		x, mean float64
	}
	var prev *pt
	for _, c := range g.Cells {
		if c.N == 0 {
			continue
		}
		scanned++
		if !found && th.crossed(c.Mean) {
			found = true
			mean = c.Mean
			if !scan.Numeric {
				label = c.Label
			} else {
				x = c.X
				if prev != nil && c.Mean != prev.mean {
					// Interpolate the axis value where the mean meets the
					// bound between the bracketing grid points.
					b := th.boundValue()
					x = prev.x + (b-prev.mean)*(c.X-prev.x)/(c.Mean-prev.mean)
				}
				label = FormatAxisValue(scan.Display, x)
			}
		}
		prev = &pt{x: c.X, mean: c.Mean}
	}
	return label, x, mean, scanned, found
}

// boundValue returns the crossing bound as a number.
func (th Threshold) boundValue() float64 {
	if th.Above != nil {
		return *th.Above
	}
	return *th.Below
}

// FormatAxisValue renders an interpolated numeric axis crossing
// ("λ≈12.4", "n≈1123"). Four significant digits keep rows readable
// while still localizing a crossing far more finely than the grid.
func FormatAxisValue(display string, x float64) string {
	return fmt.Sprintf("%s≈%.4g", display, x)
}

// appendThreshold emits the threshold's extracted rows: for each
// combination of the non-scanned axes (in first-appearance order), the
// scanned axis is walked in spec order and the crossing — interpolated
// on numeric axes, the first crossed label on categorical ones — is
// reported in the y.first column, with the crossing-side mean in
// last.mean.
func (s *Sweep) appendThreshold(res *Result, trs []TaskResult, th Threshold) {
	scan, err := s.ScanAxis(trs, th.Result, th.Series, th.Stat, th.Axis)
	if err != nil {
		// Thresholds are validated at parse time; a scan error here
		// means the spec was built programmatically and is malformed.
		// Surface it as a row rather than dropping the rule silently.
		res.Rows = append(res.Rows, []string{
			"-", "(threshold)", th.String(), "-",
			"error: " + err.Error(), "-", "-", "-", "-", "-", "-",
		})
		return
	}
	rule := th.String()
	if scan.Numeric {
		rule += " (interpolated)"
	}
	for _, g := range scan.Groups {
		label, _, mean, scanned, found := th.Crossing(scan, g)
		crossing, crossingMean := "(not crossed)", "-"
		if found {
			crossing = label
			crossingMean = fmt.Sprintf("%g", mean)
		}
		res.Rows = append(res.Rows, []string{
			g.Group, "(threshold)", rule,
			fmt.Sprintf("%d", scanned),
			crossing, "-", "-", "-", crossingMean, "-", "-",
		})
	}
}
