package experiment

import (
	"strings"
	"testing"

	"onionbots/internal/churn"
	"onionbots/internal/soap"
)

// syntheticAxisTrs builds task results over a sweep grid with the series
// value a pure function of the task label, so threshold mechanics are
// tested against analytically known crossings.
func syntheticAxisTrs(t *testing.T, s *Sweep, series string, y func(label string) float64) []TaskResult {
	t.Helper()
	tasks, err := s.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]TaskResult, 0, len(tasks))
	for _, task := range tasks {
		trs = append(trs, TaskResult{Task: task, Results: []*Result{{
			ID:     s.Experiments[0],
			Series: []Series{{Name: series, Points: []Point{{X: 0, Y: y(task.Label)}}}},
		}}})
	}
	return trs
}

// TestThresholdInterpolatesNumericAxis pins the interpolation formula on
// a grid where the crossing is analytically known: the mean rises
// linearly with n (y = n/1000), so "above 0.25" must land exactly at
// n = 250 — between the listed grid points 200 and 300.
func TestThresholdInterpolatesNumericAxis(t *testing.T) {
	above := 0.25
	s := &Sweep{
		Name:        "interp",
		Experiments: []string{"fig6"},
		Ns:          []int{100, 200, 300},
		Seeds:       []uint64{1},
		Thresholds:  []Threshold{{Series: "comp", Axis: "n", Above: &above}},
	}
	trs := syntheticAxisTrs(t, s, "comp", func(label string) float64 {
		switch labelComponent(label, "n") {
		case "100":
			return 0.1
		case "200":
			return 0.2
		default:
			return 0.3
		}
	})
	agg := s.Aggregate(trs)
	var row []string
	for _, r := range agg.Rows {
		if r[1] == "(threshold)" {
			row = r
		}
	}
	if row == nil {
		t.Fatalf("no threshold row:\n%s", agg.Render())
	}
	if row[4] != "n≈250" {
		t.Fatalf("crossing = %q, want the analytic n≈250 (row %v)", row[4], row)
	}
	if !strings.Contains(row[2], "(interpolated)") {
		t.Fatalf("numeric rule not marked interpolated: %q", row[2])
	}
	// The crossing-side mean is still the grid-point mean, not the bound.
	if row[8] != "0.3" {
		t.Fatalf("crossing mean = %q, want 0.3", row[8])
	}
}

// TestThresholdCrossingAtFirstGridPoint: with no safe point to bracket
// against, the crossing reports the first grid value itself (no
// extrapolation below the grid).
func TestThresholdCrossingAtFirstGridPoint(t *testing.T) {
	below := 0.5
	s := &Sweep{
		Name:        "edge",
		Experiments: []string{"fig6"},
		Ns:          []int{100, 200},
		Seeds:       []uint64{1},
		Thresholds:  []Threshold{{Series: "comp", Axis: "n", Below: &below}},
	}
	trs := syntheticAxisTrs(t, s, "comp", func(string) float64 { return 0.1 })
	agg := s.Aggregate(trs)
	for _, r := range agg.Rows {
		if r[1] == "(threshold)" && r[4] != "n≈100" {
			t.Fatalf("first-point crossing = %q, want n≈100", r[4])
		}
	}
}

// TestThresholdCategoricalAxisKeepsFirstLabel: an axis mixing churn
// processes is not interpolatable; the crossing must be the first
// crossed value's label exactly as earlier aggregates reported it.
func TestThresholdCategoricalAxisKeepsFirstLabel(t *testing.T) {
	below := 0.5
	s := &Sweep{
		Name:        "cat",
		Experiments: []string{"churn-repair"},
		Churn: []churn.Spec{
			{Process: "poisson", Leave: 8},
			{Process: "diurnal", Join: 2, Leave: 2, Amplitude: 0.8},
		},
		Seeds:      []uint64{1},
		Thresholds: []Threshold{{Series: "quality", Axis: "churn", Below: &below}},
	}
	trs := syntheticAxisTrs(t, s, "quality", func(label string) float64 {
		if strings.HasPrefix(labelComponent(label, "churn"), "diurnal") {
			return 0.3
		}
		return 0.9
	})
	agg := s.Aggregate(trs)
	found := false
	for _, r := range agg.Rows {
		if r[1] != "(threshold)" {
			continue
		}
		found = true
		if r[4] != "diurnal;j=2;l=2;a=0.8" {
			t.Fatalf("categorical crossing = %q, want the exact label diurnal;j=2;l=2;a=0.8", r[4])
		}
		if strings.Contains(r[2], "interpolated") {
			t.Fatalf("categorical rule claims interpolation: %q", r[2])
		}
	}
	if !found {
		t.Fatalf("no threshold row:\n%s", agg.Render())
	}
}

// numericView reads one axis's numeric view from the axes table.
func numericView(name string, s *Sweep) ([]float64, string, bool) {
	xs, display := axisNamed(name).numeric(s)
	return xs, display, xs != nil
}

// TestAxisNumericDetection pins which spec axes count as numeric: a
// single varying numeric knob over a shared shape is a ladder; mixed
// shapes or several varying knobs are categorical.
func TestAxisNumericDetection(t *testing.T) {
	t.Run("churn λ ladder", func(t *testing.T) {
		xs, display, ok := numericView("churn", &Sweep{Churn: []churn.Spec{
			{Process: "poisson", Leave: 2}, {Process: "poisson", Leave: 8}, {Process: "poisson", Leave: 32},
		}})
		if !ok || display != "λ" || len(xs) != 3 || xs[2] != 32 {
			t.Fatalf("λ ladder: xs=%v display=%q ok=%v", xs, display, ok)
		}
	})
	t.Run("mixed processes categorical", func(t *testing.T) {
		if _, _, ok := numericView("churn", &Sweep{Churn: []churn.Spec{
			{Process: "poisson", Leave: 8}, {Process: "diurnal", Join: 2, Leave: 2},
		}}); ok {
			t.Fatal("mixed churn processes must stay categorical")
		}
	})
	t.Run("two varying knobs categorical", func(t *testing.T) {
		if _, _, ok := numericView("churn", &Sweep{Churn: []churn.Spec{
			{Process: "poisson", Join: 1, Leave: 2}, {Process: "poisson", Join: 2, Leave: 8},
		}}); ok {
			t.Fatal("two varying knobs must stay categorical")
		}
	})
	t.Run("soap clone ladder", func(t *testing.T) {
		xs, display, ok := numericView("soap", &Sweep{Soap: []soap.Spec{{Clones: 16}, {Clones: 64}}})
		if !ok || display != "clones" || xs[1] != 64 {
			t.Fatalf("clone ladder: xs=%v display=%q ok=%v", xs, display, ok)
		}
	})
	t.Run("faults retry ladder", func(t *testing.T) {
		xs, display, ok := numericView("faults", &Sweep{Faults: []churn.FaultSpec{
			{OutageFrac: 0.3, RetryAttempts: 1}, {OutageFrac: 0.3, RetryAttempts: 4},
		}})
		if !ok || display != "retries" || xs[1] != 4 {
			t.Fatalf("retry ladder: xs=%v display=%q ok=%v", xs, display, ok)
		}
	})
	t.Run("single spec categorical", func(t *testing.T) {
		if _, _, ok := numericView("churn", &Sweep{Churn: []churn.Spec{{Process: "poisson", Leave: 8}}}); ok {
			t.Fatal("a one-point axis has nothing to interpolate")
		}
	})
}

func TestThresholdString(t *testing.T) {
	below, above := 0.8, 0.5
	cases := []struct {
		th   Threshold
		want string
	}{
		{Threshold{Series: "quality", Axis: "churn", Below: &below},
			"first churn with mean quality.last < 0.8"},
		{Threshold{Series: "comp", Stat: "min", Axis: "n", Above: &above},
			"first n with mean comp.min > 0.5"},
	}
	for _, tc := range cases {
		if got := tc.th.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestParseSweepRejectsSeedAxisThreshold: seeds are replicates, not a
// parameter — a threshold scanning them must fail at parse time.
func TestParseSweepRejectsSeedAxisThreshold(t *testing.T) {
	spec := `{"experiments":["fig6"],"seeds":[1,2,3],
		"thresholds":[{"series":"q","axis":"seed","below":1}]}`
	_, err := ParseSweep([]byte(spec))
	if err == nil || !strings.Contains(err.Error(), "seeds are replicates") {
		t.Fatalf("err = %v, want the seeds-are-replicates rejection", err)
	}
}

func TestMatchResultID(t *testing.T) {
	cases := []struct {
		selector, id string
		want         bool
	}{
		{"", "anything", true},
		{"fig5-components-n=400", "fig5-components-n=400", true},
		{"fig5-components-n=400", "fig5-components-n=4000", false},
		{"fig5-components-*", "fig5-components-n=4000", true},
		{"fig5-components-*", "fig5-reach-n=400", false},
	}
	for _, tc := range cases {
		if got := MatchResultID(tc.selector, tc.id); got != tc.want {
			t.Errorf("MatchResultID(%q, %q) = %v, want %v", tc.selector, tc.id, got, tc.want)
		}
	}
}
