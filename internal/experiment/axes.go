package experiment

import (
	"fmt"
	"strconv"
	"strings"
)

// Axis is one sweep axis. Axes are bits, so the set of axes an
// experiment reads (Definition.Reads) is their bitwise OR.
type Axis uint16

// The sweep axes, in task expansion order.
const (
	AxisN Axis = 1 << iota
	AxisK
	AxisFrac
	AxisChurn
	AxisSoap
	AxisFaults
	AxisSeed
	AxisTrial
)

// replicaAxes replicate a grid point rather than parameterize it.
// Every experiment honors them, so they are never declared, and no
// threshold scans them.
const replicaAxes = AxisSeed | AxisTrial

// The replica axes' names, which the aggregate's replicate pooling and
// axis scans strip from task labels.
const seedAxis, trialAxis = "seed", "trial"

// axisDesc declares one sweep axis. Parsing, task expansion and labels,
// the grid note, threshold validation and axis scans all read the axes
// table, so adding an axis is one entry there plus its Sweep and
// Params fields.
type axisDesc struct {
	id Axis
	// name keys the axis in task labels ("/n=800") and in threshold and
	// scan rules; field is its Sweep JSON field, used by the grid note
	// and parse errors.
	name, field string
	// count is how many values the sweep lists. 0 leaves the axis
	// unset: one task slot, the experiment's preset, no label segment.
	count func(s *Sweep) int
	// label renders value i as task labels embed it. Labels are the
	// axis values' identity, so duplicates are rejected by label.
	label func(s *Sweep, i int) string
	// check validates value i at parse time (nil: every value is valid).
	check func(s *Sweep, i int) error
	// set applies value i to a task's Params (nil: the axis only tells
	// replicas apart).
	set func(p *Params, s *Sweep, i int)
	// numeric returns the axis's interpolatable positions and the name
	// of the knob they measure ("" = the axis itself), or nil positions
	// when the listed values are categorical (nil: always categorical).
	numeric func(s *Sweep) ([]float64, string)
	// note renders the axis in the grid note (nil: its labels, bracketed).
	note func(s *Sweep) string
}

// axes is the axis table, in task expansion order: the last axis
// varies fastest.
var axes = [...]axisDesc{
	{
		id: AxisN, name: "n", field: "ns",
		count:   func(s *Sweep) int { return len(s.Ns) },
		label:   func(s *Sweep, i int) string { return strconv.Itoa(s.Ns[i]) },
		check:   func(s *Sweep, i int) error { return atLeastOne(s.Ns[i]) },
		set:     func(p *Params, s *Sweep, i int) { p.N = s.Ns[i] },
		numeric: func(s *Sweep) ([]float64, string) { return floats(s.Ns), "" },
	},
	{
		id: AxisK, name: "k", field: "ks",
		count:   func(s *Sweep) int { return len(s.Ks) },
		label:   func(s *Sweep, i int) string { return strconv.Itoa(s.Ks[i]) },
		check:   func(s *Sweep, i int) error { return atLeastOne(s.Ks[i]) },
		set:     func(p *Params, s *Sweep, i int) { p.K = s.Ks[i] },
		numeric: func(s *Sweep) ([]float64, string) { return floats(s.Ks), "" },
	},
	{
		id: AxisFrac, name: "frac", field: "fracs",
		count: func(s *Sweep) int { return len(s.Fracs) },
		label: func(s *Sweep, i int) string { return strconv.FormatFloat(s.Fracs[i], 'g', -1, 64) },
		check: func(s *Sweep, i int) error {
			if f := s.Fracs[i]; !(f > 0 && f <= 1) {
				return fmt.Errorf("%g outside (0, 1]", f)
			}
			return nil
		},
		set:     func(p *Params, s *Sweep, i int) { p.Frac = s.Fracs[i] },
		numeric: func(s *Sweep) ([]float64, string) { return s.Fracs, "" },
	},
	{
		id: AxisChurn, name: "churn", field: "churn",
		count: func(s *Sweep) int { return len(s.Churn) },
		label: func(s *Sweep, i int) string { return s.Churn[i].Label() },
		check: func(s *Sweep, i int) error { return s.Churn[i].Validate() },
		set:   func(p *Params, s *Sweep, i int) { p.Churn = &s.Churn[i] },
		numeric: func(s *Sweep) ([]float64, string) {
			// The leave rate is THE λ of the churn literature; the join
			// rate gets a distinguishing suffix.
			return ladder(len(s.Churn), []string{"λ", "λjoin", "amplitude", "period_h", "regions", "frac", "at_h", "hops"},
				func(i int) (any, []float64) {
					sp := s.Churn[i]
					return [2]string{sp.Process, sp.TraceFile}, []float64{sp.Leave, sp.Join, sp.Amplitude,
						sp.PeriodH, float64(sp.Regions), sp.Frac, sp.AtH, float64(sp.Hops)}
				})
		},
	},
	{
		id: AxisSoap, name: "soap", field: "soap",
		count: func(s *Sweep) int { return len(s.Soap) },
		label: func(s *Sweep, i int) string { return s.Soap[i].Label() },
		check: func(s *Sweep, i int) error { return s.Soap[i].Validate() },
		set:   func(p *Params, s *Sweep, i int) { p.Soap = &s.Soap[i] },
		numeric: func(s *Sweep) ([]float64, string) {
			return ladder(len(s.Soap), []string{"clones", "round_s", "non", "bits"},
				func(i int) (any, []float64) {
					sp := s.Soap[i]
					return sp.SolvePoW, []float64{float64(sp.Clones), sp.RoundS, float64(sp.NoN), float64(sp.SolveBits)}
				})
		},
	},
	{
		id: AxisFaults, name: "faults", field: "faults",
		count: func(s *Sweep) int { return len(s.Faults) },
		label: func(s *Sweep, i int) string { return s.Faults[i].Label() },
		check: func(s *Sweep, i int) error { return s.Faults[i].Validate() },
		set:   func(p *Params, s *Sweep, i int) { p.Faults = &s.Faults[i] },
		numeric: func(s *Sweep) ([]float64, string) {
			return ladder(len(s.Faults), []string{"crash_rate", "restart_h", "outage_frac", "outage_at_h", "retries", "backoff_s"},
				func(i int) (any, []float64) {
					sp := s.Faults[i]
					return sp.OutageTargeted, []float64{sp.CrashRate, sp.RestartH, sp.OutageFrac, sp.OutageAtH,
						float64(sp.RetryAttempts), sp.RetryBackoffS}
				})
		},
	},
	{
		// Unset seeds run seed 1: see Sweep.Tasks.
		id: AxisSeed, name: seedAxis, field: "seeds",
		count: func(s *Sweep) int { return len(s.Seeds) },
		label: func(s *Sweep, i int) string { return strconv.FormatUint(s.Seeds[i], 10) },
		set:   func(p *Params, s *Sweep, i int) { p.Seed = s.Seeds[i] },
	},
	{
		// A single trial is unlabelled.
		id: AxisTrial, name: trialAxis, field: "trials",
		count: func(s *Sweep) int {
			if s.Trials > 1 {
				return s.Trials
			}
			return 0
		},
		label: func(_ *Sweep, i int) string { return strconv.Itoa(i) },
		note:  func(s *Sweep) string { return strconv.Itoa(max(1, s.Trials)) },
	},
}

// axisNamed returns the table entry keyed name, or nil.
func axisNamed(name string) *axisDesc {
	for i := range axes {
		if axes[i].name == name {
			return &axes[i]
		}
	}
	return nil
}

// labels renders every listed value of the axis, in spec order (nil
// when the axis is unset).
func (a *axisDesc) labels(s *Sweep) []string {
	n := a.count(s)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = a.label(s, i)
	}
	return out
}

// validate checks the axis's values for ParseSweep: each value on its
// own, no two values with one label (the label is the task's, and its
// RNG substream's, identity on this axis), and no varied axis that
// none of the sweep's experiments reads.
func (a *axisDesc) validate(s *Sweep, reads Axis) error {
	n := a.count(s)
	seen := make(map[string]struct{}, n)
	for i := 0; i < n; i++ {
		if a.check != nil {
			if err := a.check(s, i); err != nil {
				return fmt.Errorf("%s[%d]: %w", a.field, i, err)
			}
		}
		l := a.label(s, i)
		if _, dup := seen[l]; dup {
			return fmt.Errorf("duplicate %s spec %q", a.name, l)
		}
		seen[l] = struct{}{}
	}
	if n > 0 && a.id&(reads|replicaAxes) == 0 {
		return fmt.Errorf("no experiment in %v reads the %s axis", s.Experiments, a.name)
	}
	return nil
}

// noteValue renders the axis for the grid note.
func (a *axisDesc) noteValue(s *Sweep) string {
	if a.note != nil {
		return a.note(s)
	}
	return "[" + strings.Join(a.labels(s), " ") + "]"
}

// scannedAxes lists the axes a threshold can scan, for error messages:
// "n, k, ..., or faults".
func scannedAxes() string {
	var names []string
	for _, a := range axes {
		if a.id&replicaAxes == 0 {
			names = append(names, a.name)
		}
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

func atLeastOne(v int) error {
	if v < 1 {
		return fmt.Errorf("%d < 1", v)
	}
	return nil
}

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// ladder is the numeric view of a spec axis: when all n specs share a
// shape (process, flags) and exactly one numeric knob varies across
// them — a λ ladder, a clone-budget ladder, an outage-fraction ladder —
// the axis is that knob's values. Anything else (mixed shapes, several
// knobs varying, a single spec) is categorical: nil positions.
func ladder(n int, knobs []string, spec func(i int) (shape any, vals []float64)) ([]float64, string) {
	if n < 2 {
		return nil, ""
	}
	shape0, _ := spec(0)
	vals := make([][]float64, len(knobs))
	for i := 0; i < n; i++ {
		shape, v := spec(i)
		if shape != shape0 {
			return nil, ""
		}
		for k := range knobs {
			vals[k] = append(vals[k], v[k])
		}
	}
	varying := -1
	for k, vs := range vals {
		for _, v := range vs[1:] {
			if v != vs[0] {
				if varying >= 0 {
					return nil, ""
				}
				varying = k
				break
			}
		}
	}
	if varying < 0 {
		return nil, ""
	}
	return vals[varying], knobs[varying]
}
