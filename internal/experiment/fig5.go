package experiment

import (
	"fmt"

	"onionbots/internal/ddsr"
	"onionbots/internal/graph"
	"onionbots/internal/sim"
)

func init() {
	Register(Definition{
		ID:    "fig5",
		Title: "DDSR vs normal graph resilience under takedown (Figs 5a-5f)",
		Reads: AxisN | AxisK,
		Run: func(p Params) ([]*Result, error) {
			sizes := []int{5000, 15000}
			switch {
			case p.N > 0:
				sizes = []int{p.N}
			case p.Quick:
				sizes = []int{0} // quick preset ignores the size argument
			}
			var out []*Result
			for _, n := range sizes {
				cfg := DefaultFig5Config(p.Quick, n)
				cfg.Seed = p.Seed
				if p.Quick && p.N > 0 {
					// Quick presets pin N; keep the preset's sampling
					// density when a sweep overrides the size.
					cfg.N = p.N
					cfg.MeasureEvery = max(1, p.N/10)
				}
				if p.K > 0 {
					cfg.K = p.K
				}
				comps, degree, diam, err := RunFig5(cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, comps, degree, diam)
			}
			return out, nil
		},
	})
}

// Fig5Config parameterizes the Figure 5 resilience comparison: gradual
// deletion in a 10-regular graph, DDSR versus a normal (no-repair)
// graph, tracking connected components, degree centrality, and
// diameter.
type Fig5Config struct {
	// N is the graph size. The paper plots 5000 (left column) and
	// 15000 (right column).
	N int
	// K is the regularity. Paper: 10.
	K int
	// MeasureEvery samples each this many deletions.
	MeasureEvery int
	// DiameterSweeps controls the double-sweep diameter approximation.
	DiameterSweeps int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultFig5Config returns the paper's parameters for the given size
// (5000 or 15000), or a scaled-down quick preset.
func DefaultFig5Config(quick bool, n int) Fig5Config {
	if quick {
		return Fig5Config{N: 400, K: 10, MeasureEvery: 40, DiameterSweeps: 4, Seed: 2}
	}
	return Fig5Config{N: n, K: 10, MeasureEvery: max(1, n/50), DiameterSweeps: 4, Seed: 2}
}

// RunFig5 regenerates Figures 5a/5b (components), 5c/5d (degree
// centrality) and 5e/5f (diameter) for one graph size. Each result has
// a DDSR and a Normal series.
func RunFig5(cfg Fig5Config) (components, degree, diameter *Result, err error) {
	components = &Result{
		ID:     fmt.Sprintf("fig5-components-n=%d", cfg.N),
		Title:  fmt.Sprintf("Connected components under deletion, %d-regular n=%d", cfg.K, cfg.N),
		XLabel: "nodes deleted", YLabel: "connected components",
	}
	degree = &Result{
		ID:     fmt.Sprintf("fig5-degree-n=%d", cfg.N),
		Title:  fmt.Sprintf("Avg degree centrality under deletion, %d-regular n=%d", cfg.K, cfg.N),
		XLabel: "nodes deleted", YLabel: "degree centrality",
	}
	diameter = &Result{
		ID:     fmt.Sprintf("fig5-diameter-n=%d", cfg.N),
		Title:  fmt.Sprintf("Diameter under deletion, %d-regular n=%d", cfg.K, cfg.N),
		XLabel: "nodes deleted", YLabel: "diameter (largest component)",
	}

	// Both variants start from the same regular graph: the baseline
	// takes a deep copy of the overlay's graph, which is exactly what a
	// second build on a fresh NewRNG(cfg.Seed) would produce.
	rng := sim.NewRNG(cfg.Seed)
	g, err := graph.RandomRegular(cfg.N, cfg.K, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	nrm := ddsr.NewNormal(g.Clone())
	o, err := ddsr.New(g, ddsr.DefaultConfig(cfg.K), rng)
	if err != nil {
		return nil, nil, nil, err
	}
	// The two variants own disjoint graphs and RNGs, so each runs on its
	// own goroutine; the fixed slots keep the series order DDSR, Normal.
	variants := []ddsr.Maintainer{o, nrm}
	names := []string{"DDSR", "Normal"}
	series := make([][3]Series, len(variants))
	fanOut(len(variants), func(i int) {
		series[i] = fig5Variant(cfg, names[i], variants[i])
	})
	for _, s := range series {
		components.Series = append(components.Series, s[0])
		degree.Series = append(degree.Series, s[1])
		diameter.Series = append(diameter.Series, s[2])
	}
	annotateFig5(components, degree, diameter, cfg)
	return components, degree, diameter, nil
}

// fig5Snapshot is one measuring point handed from the deleting
// goroutine to the measuring one.
type fig5Snapshot struct {
	deleted int
	ix      *graph.Indexed
}

// fig5Variant deletes all but three nodes of m in the takedown order
// and returns the variant's component, degree-centrality and diameter
// series. The deletions run on one goroutine, which also reads the
// degree centrality off the live graph; each CSR snapshot is measured
// on a second goroutine while the deletions after it continue. The
// hand-off is unbuffered, so at most one snapshot is measured at a time
// and mrng draws in snapshot order.
func fig5Variant(cfg Fig5Config, name string, m ddsr.Maintainer) [3]Series {
	comp, deg, diam := Series{Name: name}, Series{Name: name}, Series{Name: name}
	//onionlint:allow substream -- pre-substream seed schedule pinned by archived Fig 5 runs; relabeling would reshuffle the takedown permutation
	perm := sim.NewRNG(cfg.Seed + 7).Perm(cfg.N)
	//onionlint:allow substream -- same pinned schedule, maintenance stream
	mrng := sim.NewRNG(cfg.Seed + 11)
	snaps := make(chan fig5Snapshot)
	fanOut(2, func(cell int) {
		if cell == 1 {
			// If a measurement panics, keep draining so the deleting
			// goroutine never blocks on a hand-off nobody takes.
			defer func() {
				for range snaps {
				}
			}()
			for s := range snaps {
				comp.Points = append(comp.Points, Point{X: float64(s.deleted), Y: float64(len(s.ix.Components()))})
				d, _ := s.ix.DiameterApprox(cfg.DiameterSweeps, mrng)
				diam.Points = append(diam.Points, Point{X: float64(s.deleted), Y: float64(d)})
			}
			return
		}
		defer close(snaps)
		take := func(deleted int) {
			g := m.Graph()
			if g.NumNodes() == 0 {
				return
			}
			deg.Points = append(deg.Points, Point{X: float64(deleted), Y: graph.AvgDegreeCentrality(g)})
			// One CSR snapshot feeds both the component count and the
			// diameter sweep.
			snaps <- fig5Snapshot{deleted, g.Snapshot()}
		}
		take(0)
		// Delete all but a residue of 3 nodes, as the paper's x axes run
		// essentially to the full population.
		limit := cfg.N - 3
		for i := 0; i < limit; i++ {
			m.RemoveNode(perm[i])
			if (i+1)%cfg.MeasureEvery == 0 || i+1 == limit {
				take(i + 1)
			}
		}
	})
	return [3]Series{comp, deg, diam}
}

func annotateFig5(components, degree, diameter *Result, cfg Fig5Config) {
	// The paper's claims: DDSR stays a single component until almost
	// every node is gone; the normal graph shatters sharply after ~60%
	// deletion; DDSR degree centrality rises slightly (fixed degree,
	// shrinking population); DDSR diameter falls as the graph shrinks
	// while the normal diameter rises until partition.
	if ddsrSeries := components.SeriesByName("DDSR"); ddsrSeries != nil {
		maxComp := 0.0
		lastSingle := 0.0
		for _, p := range ddsrSeries.Points {
			if p.Y > maxComp {
				maxComp = p.Y
			}
			if p.Y <= 1 {
				lastSingle = p.X
			}
		}
		components.AddNote("DDSR stays connected through %.0f%% deletions (max components %.0f)",
			100*lastSingle/float64(cfg.N), maxComp)
	}
	if nrm := components.SeriesByName("Normal"); nrm != nil {
		for _, p := range nrm.Points {
			if p.Y > 1 {
				components.AddNote("Normal first partitions near %.0f%% deletions",
					100*p.X/float64(cfg.N))
				break
			}
		}
	}
	_ = degree
	_ = diameter
}
