package experiment_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"onionbots/internal/churn"
	"onionbots/internal/experiment"
	"onionbots/internal/scenario"
	"onionbots/internal/soap"
)

// goldenPath pins the expansion and aggregation of every in-tree sweep.
const goldenPath = "testdata/sweep-golden.txt"

// overlaySweeps rebuilds the benchmark's overlay-takedown grids: the
// fig5+fig6 quick grid on three consecutive seeds and the n=10^5 Fig 5
// point.
func overlaySweeps(seed uint64) (grid, point *experiment.Sweep) {
	grid = &experiment.Sweep{Name: "fig5-fig6-quick", Experiments: []string{"fig5", "fig6"}, Quick: true,
		Ns: []int{1000, 2000, 4000}, Seeds: []uint64{seed, seed + 1, seed + 2}}
	point = &experiment.Sweep{Name: "fig5-100k", Experiments: []string{"fig5"}, Quick: true,
		Ns: []int{100000}, Seeds: []uint64{seed}}
	return grid, point
}

// everyAxisSweep sets all eight axes at once, so the golden pins each
// label segment, its position in the label, and the numeric views of
// the axes no in-tree spec sweeps (k, frac).
func everyAxisSweep() *experiment.Sweep {
	lo, hi := 0.5, 0.4
	return &experiment.Sweep{
		Name:        "every-axis",
		Experiments: []string{"fig4"},
		Ns:          []int{100, 200},
		Ks:          []int{4},
		Fracs:       []float64{0.1, 0.3},
		Churn:       []churn.Spec{{Process: "poisson", Leave: 2}, {Process: "poisson", Leave: 8}},
		Soap:        []soap.Spec{{Clones: 16}},
		Faults:      []churn.FaultSpec{{OutageFrac: 0.3, OutageAtH: 2}},
		Seeds:       []uint64{1, 2},
		Trials:      2,
		Thresholds: []experiment.Threshold{
			{Series: "y", Axis: "frac", Above: &lo},
			{Series: "y", Axis: "churn", Below: &hi},
			{Series: "y", Axis: "n", Above: &lo},
		},
	}
}

type namedSweep struct {
	source string
	sweep  *experiment.Sweep
}

// inTreeSweeps collects the example specs, the serve example, the
// scenario library and the benchmark grids at both workload seeds.
func inTreeSweeps(t *testing.T) []namedSweep {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "sweep", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example sweeps: %v", err)
	}
	files = append(files, filepath.Join("..", "..", "examples", "serve", "fig6-serve-grid.json"))
	var out []namedSweep
	for _, f := range files {
		s, err := experiment.LoadSweep(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedSweep{filepath.ToSlash(strings.TrimPrefix(f, filepath.Join("..", "..")+string(filepath.Separator))), s})
	}
	for _, name := range scenario.Names() {
		sc, _ := scenario.Lookup(name)
		out = append(out, namedSweep{"scenario " + name, sc.Sweep})
	}
	for _, seed := range []uint64{1, 101} {
		grid, point := overlaySweeps(seed)
		out = append(out,
			namedSweep{fmt.Sprintf("perfbench grid seed=%d", seed), grid},
			namedSweep{fmt.Sprintf("perfbench point seed=%d", seed), point})
	}
	return append(out, namedSweep{"every-axis", everyAxisSweep()})
}

// syntheticY is a deterministic pseudo-random series value in [0, 1)
// per (task label, series).
func syntheticY(series string) func(label string) float64 {
	return func(label string) float64 {
		h := fnv.New32a()
		h.Write([]byte(label + "|" + series))
		return float64(h.Sum32()%1000) / 1000
	}
}

// synthetic builds task results carrying one series per threshold
// series the sweep names ("y" when it names none).
func synthetic(t *testing.T, s *experiment.Sweep) ([]experiment.TaskResult, string) {
	var names []string
	for _, th := range s.Thresholds {
		if !contains(names, th.Series) {
			names = append(names, th.Series)
		}
	}
	if len(names) == 0 {
		names = []string{"y"}
	}
	trs := experiment.SyntheticAxisTrs(t, s, names[0], syntheticY(names[0]))
	for _, name := range names[1:] {
		more := experiment.SyntheticAxisTrs(t, s, name, syntheticY(name))
		for i := range trs {
			trs[i].Results[0].Series = append(trs[i].Results[0].Series, more[i].Results[0].Series...)
		}
	}
	return trs, names[0]
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// renderSweepGolden renders, for every in-tree sweep, each task's label
// and Params, the numeric view of every scannable axis, and the
// aggregate over synthetic results (threshold and mean±sd rows
// included).
func renderSweepGolden(t *testing.T) string {
	var b strings.Builder
	for _, ns := range inTreeSweeps(t) {
		s := ns.sweep
		fmt.Fprintf(&b, "### %s\n", ns.source)
		tasks, err := s.Tasks()
		if err != nil {
			t.Fatalf("%s: %v", ns.source, err)
		}
		for _, task := range tasks {
			p, err := json.Marshal(task.Params)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "task %s %s %s\n", task.Label, task.Experiment, p)
		}
		trs, series := synthetic(t, s)
		for _, axis := range []string{"n", "k", "frac", "churn", "soap", "faults", "seed"} {
			scan, err := s.ScanAxis(trs, "", series, "last", axis)
			if err != nil {
				fmt.Fprintf(&b, "scan %s: %v\n", axis, err)
				continue
			}
			fmt.Fprintf(&b, "scan %s: display=%s numeric=%v groups=%d", axis, scan.Display, scan.Numeric, len(scan.Groups))
			for _, c := range scan.Groups[0].Cells {
				fmt.Fprintf(&b, " %s@%g", c.Label, c.X)
			}
			b.WriteString("\n")
		}
		b.WriteString(s.Aggregate(trs).Render())
	}
	return b.String()
}

// TestSweepGolden pins what every in-tree sweep expands to and how its
// grid aggregates. To re-pin after a deliberate change, delete the
// golden file and run the test twice.
func TestSweepGolden(t *testing.T) {
	got := renderSweepGolden(t)
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; re-run to check against it", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", goldenPath, i+1, g, w)
		}
	}
}
